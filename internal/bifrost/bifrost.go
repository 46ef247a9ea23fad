// Package bifrost implements a simplified two-party secure join in the
// style of Bifrost (see PAPERS.md): both parties simple-hash their join
// keys into the same bin space under one public hash function, and a
// single garbled circuit compares the receiver's R slots per bin against
// the sender's L entries per bin, producing additive shares of the
// matched payload (or 0) per receiver slot.
//
// The construction trades the cuckoo machinery of circuit-phasing PSI
// (internal/psi) for a larger comparison circuit: with only one hash
// function there is no eviction, so the receiver pads every bin to a
// load bound R instead of holding one item per bin, and the circuit
// grows to B·R·L comparisons. That loses asymptotically but wins at
// small cardinalities, where PSI's fixed bin expansion and three-way
// hashing dominate. Its precondition is Bifrost's: the *sender's* join
// keys must be unique, so that at most one sender entry matches any
// receiver slot and payload shares can be summed without multiplicity
// bookkeeping. No intersection indicator is produced — the caller's
// annotation algebra treats "no match" and "payload 0" identically.
package bifrost

import (
	"fmt"

	"secyan/internal/cuckoo"
	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/prf"
)

var (
	mRuns     = obs.NewCounter("secyan_bifrost_runs_total", "Bifrost join executions (receiver+sender sides of this process).")
	mSlots    = obs.NewHistogram("secyan_bifrost_slots", "Receiver slot count B·R per execution.")
	mElements = obs.NewCounter("secyan_bifrost_elements_total", "Real elements fed into bifrost executions (both sides).")
)

// Sigma is the statistical security parameter bounding both bin-load
// tails (same posture as psi.Sigma: overflow probability < 2^-σ).
const Sigma = 40

// MaxElement matches the PSI element domain: one bit is reserved for the
// dummy tag, and callers already confine values to 62 bits.
const MaxElement = uint64(1)<<62 - 1

// keyBits is the width of composed keys inside the comparison circuit.
const keyBits = 64

// Composed real keys are even (v<<1); the dummies are odd and distinct,
// so no dummy slot ever matches anything.
const (
	receiverDummyKey = ^uint64(0)
	senderDummyKey   = uint64(1)
)

// Compose builds the circuit key for element v.
func Compose(v uint64) (uint64, error) {
	if v > MaxElement {
		return 0, fmt.Errorf("bifrost: element %d exceeds the 62-bit domain", v)
	}
	return v << 1, nil
}

// Params are the public dimensions of one execution; both parties derive
// identical Params from the public set sizes.
type Params struct {
	M int // receiver set size
	N int // sender set size
	B int // bins
	R int // receiver per-bin capacity
	L int // sender per-bin capacity
}

// binGrid is the candidate bin-count grid NewParams searches, as
// multipliers of the receiver set size in eighths (m/8 … 2m). A small
// grid keeps Params deterministic and cheap while letting the load
// bounds trade against bin count.
var binGrid = []int{1, 2, 4, 8, 12, 16}

// NewParams computes the public parameters for set sizes m (receiver)
// and n (sender): the bin count from a small grid minimizing the
// comparison-circuit work B·R·L, with both load bounds set by the
// σ-tail of simple hashing.
func NewParams(m, n int) Params {
	if m <= 0 || n <= 0 {
		return Params{M: m, N: n, B: 1, R: maxInt(m, 1), L: maxInt(n, 1)}
	}
	best := Params{M: m, N: n}
	for _, g := range binGrid {
		b := maxInt((m*g+7)/8, 1)
		cand := Params{M: m, N: n, B: b,
			R: cuckoo.MaxBinLoad(m, b, Sigma),
			L: cuckoo.MaxBinLoad(n, b, Sigma)}
		if best.B == 0 || cand.work() < best.work() {
			best = cand
		}
	}
	return best
}

func (pr Params) work() int { return pr.B * pr.R * pr.L }

// Slots returns the number of receiver slots B·R, the length of both
// parties' PayShares.
func (pr Params) Slots() int { return pr.B * pr.R }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Result is one party's output: per receiver slot, an additive share of
// the matched payload (0 when no match). For the receiver, SlotOf maps
// her raw elements to their slots.
type Result struct {
	Params    Params
	PayShares []uint64
	SlotOf    map[uint64]int // receiver side only
}

// binGadget emits the comparison gadget of one bin: the sender's L keys
// and payloads enter as garbler-private constants; for each of the
// receiver's R slots, the evaluator inputs her composed key, the payloads
// of matching sender entries are summed (at most one matches, by the
// uniqueness precondition), and the sender's mask r enters as a regular
// garbler input. Output per slot, revealed to the evaluator: pay - r.
func binGadget(b *gc.Builder, pr Params, ell int) {
	ykeys := make([][]gc.PBit, pr.L)
	ypays := make([][]gc.PBit, pr.L)
	for j := 0; j < pr.L; j++ {
		ykeys[j] = b.PrivateWord(keyBits)
		ypays[j] = b.PrivateWord(ell)
	}
	for r := 0; r < pr.R; r++ {
		akey := b.EvalInputWord(keyBits)
		var pay gc.Word
		for j := 0; j < pr.L; j++ {
			masked := b.ANDGWordBit(ypays[j], b.EqPrivate(akey, ykeys[j]))
			if j == 0 {
				pay = masked
			} else {
				pay = b.Add(pay, masked)
			}
		}
		rPay := b.GarblerInputWord(ell)
		b.OutputWordToEval(b.Sub(pay, rPay))
	}
}

// buildCircuit constructs the batched comparison circuit shared by both
// parties: binGadget as one circuit slot, repeated once per bin.
func buildCircuit(pr Params, ell int) *gc.Circuit {
	b := gc.NewBuilder()
	binGadget(b, pr, ell)
	return b.BuildSlots(pr.B)
}

// BuildCircuitForEstimate exposes the comparison circuit to the plan
// compiler's ahead-of-time garbling.
func BuildCircuitForEstimate(pr Params, ell int) *gc.Circuit { return buildCircuit(pr, ell) }

// receiverBins places the receiver's distinct elements into bins of
// capacity R under seed, retrying is the caller's concern (the σ-tail
// makes overflow a <2^-σ event). It returns per-element slots, or false
// on overflow.
func receiverBins(seed prf.Seed, pr Params, xs []uint64) (map[uint64]int, bool) {
	load := make([]int, pr.B)
	slot := make(map[uint64]int, len(xs))
	for _, x := range xs {
		bin := cuckoo.BinOf(seed, pr.B, x, 0)
		if load[bin] >= pr.R {
			return nil, false
		}
		slot[x] = bin*pr.R + load[bin]
		load[bin]++
	}
	return slot, true
}

// maxSeedAttempts bounds the receiver's rehash loop, mirroring the
// cuckoo builder's posture: with overflow probability < 2^-σ per seed,
// running out is unreachable in practice.
const maxSeedAttempts = 32

// RunReceiver executes the join as the payload receiver with distinct
// elements xs; nSender is the public size of the sender's set. The
// receiver draws the hash seed (rehashing on the <2^-σ overflow event)
// and sends it, mirroring psi.RunReceiver.
func RunReceiver(p *mpc.Party, xs []uint64, nSender int) (*Result, error) {
	pr := NewParams(len(xs), nSender)
	sp := obs.Begin("bifrost", "bifrost.recv")
	defer sp.EndN(int64(pr.Slots()))
	mRuns.Inc()
	mElements.Add(int64(len(xs)))
	mSlots.Observe(int64(pr.Slots()))
	seen := make(map[uint64]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return nil, fmt.Errorf("bifrost: receiver element %d duplicated", x)
		}
		seen[x] = true
	}
	var seed prf.Seed
	var slotOf map[uint64]int
	ok := false
	for attempt := 0; attempt < maxSeedAttempts && !ok; attempt++ {
		seed = p.PRG.Seed()
		slotOf, ok = receiverBins(seed, pr, xs)
	}
	if !ok {
		return nil, fmt.Errorf("bifrost: receiver bins exceeded load bound %d after %d seeds", pr.R, maxSeedAttempts)
	}
	if err := p.Conn.Send(seed[:]); err != nil {
		return nil, err
	}
	akeys := make([]uint64, pr.Slots())
	for i := range akeys {
		akeys[i] = receiverDummyKey
	}
	for x, s := range slotOf {
		k, err := Compose(x)
		if err != nil {
			return nil, err
		}
		akeys[s] = k
	}
	ell := p.Ring.Bits
	circ := buildCircuit(pr, ell)
	evalBits := make([]bool, 0, pr.Slots()*keyBits)
	for _, k := range akeys {
		evalBits = gc.AppendBits(evalBits, k, keyBits)
	}
	out, err := p.RunCircuit(circ, evalBits, nil, p.Role.Other())
	if err != nil {
		return nil, err
	}
	res := &Result{Params: pr, SlotOf: slotOf, PayShares: make([]uint64, pr.Slots())}
	for s := 0; s < pr.Slots(); s++ {
		res.PayShares[s] = gc.UintOfBits(out[s*ell : (s+1)*ell])
	}
	return res, nil
}

// RunSender executes the join as the payload sender with unique elements
// ys and aligned plaintext payloads; mReceiver is the public size of the
// receiver's set. Key uniqueness is the protocol's precondition and is
// enforced here.
func RunSender(p *mpc.Party, ys, payloads []uint64, mReceiver int) (*Result, error) {
	if len(ys) != len(payloads) {
		return nil, fmt.Errorf("bifrost: %d elements with %d payloads", len(ys), len(payloads))
	}
	pr := NewParams(mReceiver, len(ys))
	sp := obs.Begin("bifrost", "bifrost.send")
	defer sp.EndN(int64(pr.Slots()))
	mRuns.Inc()
	mElements.Add(int64(len(ys)))
	mSlots.Observe(int64(pr.Slots()))
	seedMsg, err := p.Conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(seedMsg) != prf.SeedSize {
		return nil, fmt.Errorf("bifrost: bad hash seed length %d", len(seedMsg))
	}
	var seed prf.Seed
	copy(seed[:], seedMsg)

	keys := make([][]uint64, pr.B)
	pays := make([][]uint64, pr.B)
	seen := make(map[uint64]bool, len(ys))
	for j, y := range ys {
		if seen[y] {
			return nil, fmt.Errorf("bifrost: sender key %d duplicated (unique-key precondition)", y)
		}
		seen[y] = true
		k, err := Compose(y)
		if err != nil {
			return nil, err
		}
		bin := cuckoo.BinOf(seed, pr.B, y, 0)
		if len(keys[bin]) >= pr.L {
			// Statistical failure (probability < 2^-σ), surfaced as an error
			// like psi.senderBins.
			return nil, fmt.Errorf("bifrost: sender bin %d exceeded load bound %d", bin, pr.L)
		}
		keys[bin] = append(keys[bin], k)
		pays[bin] = append(pays[bin], payloads[j])
	}
	for bin := 0; bin < pr.B; bin++ {
		for len(keys[bin]) < pr.L {
			keys[bin] = append(keys[bin], senderDummyKey)
			pays[bin] = append(pays[bin], 0)
		}
	}

	ell := p.Ring.Bits
	circ := buildCircuit(pr, ell)
	res := &Result{Params: pr, PayShares: make([]uint64, pr.Slots())}
	privBits := make([]bool, 0, pr.B*pr.L*(keyBits+ell))
	garblerBits := make([]bool, 0, pr.Slots()*ell)
	for bin := 0; bin < pr.B; bin++ {
		for j := 0; j < pr.L; j++ {
			privBits = gc.AppendBits(privBits, keys[bin][j], keyBits)
			privBits = gc.AppendBits(privBits, p.Ring.Mask(pays[bin][j]), ell)
		}
		for r := 0; r < pr.R; r++ {
			rPay := p.Ring.Random(p.PRG)
			res.PayShares[bin*pr.R+r] = rPay
			garblerBits = gc.AppendBits(garblerBits, rPay, ell)
		}
	}
	if _, err := p.RunCircuit(circ, garblerBits, privBits, p.Role); err != nil {
		return nil, err
	}
	return res, nil
}
