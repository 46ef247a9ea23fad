// Package psi implements circuit-friendly private set intersection, the
// primitive the Secure Yannakakis paper uses inside its oblivious semijoin
// operators (§5.3, §5.5).
//
// The construction is the paper's: the OPPRF-based circuit PSI of Pinkas,
// Schneider, Tkachenko and Yanai (reference [27]; DESIGN.md §4 says which
// of its building blocks are substituted). The receiver (Alice)
// cuckoo-hashes her set into B = 1.27·M bins using 3 hash functions; the
// sender (Bob) simple-hashes every element of his set into all 3
// candidate bins, at most L per bin except with probability 2^-σ. Per
// bin the parties run an oblivious PRF on Alice's one item (oprf.go);
// Bob draws a random τ-bit target t_b and sends a fixed-size hint
// (hint.go) that, unmasked with the PRF, decodes at each of his keys of
// the bin to t_b and a masked payload, and to noise elsewhere. A garbled
// circuit then does ONE comparison per bin — Alice's decoded target
// against t_b — and selects the payload or a default, producing in
// secret-shared form an intersection indicator and the matching payload
// (or 0) for every bin.
//
// Elements are composed with the index of the hash function that placed
// them, so that an element of X placed by h_i only matches a copy of the
// same element inserted under h_i. Element values must fit in 62 bits;
// the remaining tag value encodes the receiver's dummy, so an empty bin
// can never match anything.
package psi

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"secyan/internal/cuckoo"
	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/prf"
	"secyan/internal/share"
	"secyan/internal/transport"
)

// PSI metrics: executions and bin-space dimensions. Collection is off
// until obs.Enable.
var (
	mPSIRuns      = obs.NewCounter("secyan_psi_runs_total", "PSI executions (receiver+sender sides of this process).")
	mPSIBins      = obs.NewHistogram("secyan_psi_bins", "Cuckoo bin count B per PSI execution.")
	mPSIEmptyBins = obs.NewCounter("secyan_psi_receiver_empty_bins_total", "Receiver cuckoo bins left empty (filled with dummies).")
	mPSIElements  = obs.NewCounter("secyan_psi_elements_total", "Real elements fed into PSI executions (both sides).")
	mPSINs        = obs.NewHistogram("secyan_psi_ns", "Latency of one PSI execution (either side, direct or indexed), nanoseconds.")
)

// observeRun records one PSI execution's dimensions on the obs layer and
// returns a stop function that, when obs is enabled, folds the run's
// latency into the histogram. The no-obs path costs one atomic load and
// allocates nothing.
func observeRun(bins, elements int) func() {
	if !obs.Enabled() {
		return func() {}
	}
	mPSIRuns.Inc()
	mPSIElements.Add(int64(elements))
	mPSIBins.Observe(int64(bins))
	startT := time.Now()
	return func() { mPSINs.Observe(time.Since(startT).Nanoseconds()) }
}

// KernelTotals reports the cumulative receiver-bin count and summed
// execution latency observed by the obs layer (both zero until
// obs.Enable). The benchmark harness differences two snapshots to
// compute the aggregate bins/second of one measured run.
func KernelTotals() (bins, ns int64) { return mPSIBins.Sum(), mPSINs.Sum() }

// Sigma is the statistical security parameter (paper §4: σ = 40): it
// bounds the sender's bin overflow, the hint's rank failure and the
// false-positive rate of the per-bin comparison.
const Sigma = 40

// MaxElement is the largest set element representable: two bits are
// reserved for the hash-function tag.
const MaxElement = uint64(1)<<62 - 1

// keyBits is the width of composed keys, the OPRF's input.
const keyBits = 64

// receiverDummyKey fills the receiver's empty cuckoo bins. It carries tag
// 3, which no composed key has, so the sender never programs it.
const receiverDummyKey = ^uint64(0)

// ErrDuplicateKey reports a sender set with a repeated element where the
// protocol cannot merge the copies: a hint can be programmed at a key
// only once, and secret-shared payloads cannot be summed locally.
var ErrDuplicateKey = errors.New("psi: duplicate sender key")

// Compose builds the OPRF key for element v placed by hash function
// `which` (0..2).
func Compose(v uint64, which int) (uint64, error) {
	if v > MaxElement {
		return 0, fmt.Errorf("psi: element %d exceeds the 62-bit domain", v)
	}
	return v<<2 | uint64(which), nil
}

// Params are the public dimensions of one PSI execution; both parties
// derive identical Params from the public set sizes.
type Params struct {
	M int // receiver set size
	N int // sender set size
	B int // bins
	L int // sender per-bin capacity
}

// NewParams computes the public parameters for set sizes m (receiver) and
// n (sender).
func NewParams(m, n int) Params {
	b := cuckoo.NumBins(m)
	return Params{M: m, N: n, B: b, L: cuckoo.MaxBinLoad(cuckoo.NumHashes*n, b, Sigma)}
}

// tau is the width of the per-bin target: σ + ⌈log₂B⌉ bits, so that a
// non-matching bin's decoded target equals the sender's with probability
// 2^-τ and some bin of the B does with probability below 2^-σ. (It is
// carried in one word; beyond 2^24 bins σ shrinks by one per doubling.)
func (pr Params) tau() int { return min(64, Sigma+bits.Len(uint(pr.B-1))) }

// Result is one party's output of a PSI execution: per receiver bin, an
// additive share of the 0/1 intersection indicator and of the matched
// payload (0 when no match). For the receiver, Table is her cuckoo table
// (needed by callers to map bins back to her elements).
type Result struct {
	Params    Params
	IndShares []uint64
	PayShares []uint64
	Table     *cuckoo.Table // receiver side only
}

// senderBins simple-hashes the sender's elements into the receiver's bin
// space: per bin, the composed keys that fall into it and the index of
// the element each came from. Bin indices are computed per hash function
// in batched AES sweeps (cuckoo.BinsOf).
func senderBins(seed prf.Seed, pr Params, ys []uint64) (keys [][]uint64, elem [][]int, err error) {
	keys = make([][]uint64, pr.B)
	elem = make([][]int, pr.B)
	bins := make([]int, len(ys))
	for which := 0; which < cuckoo.NumHashes; which++ {
		cuckoo.BinsOf(seed, pr.B, ys, which, bins)
		for j, y := range ys {
			k, err := Compose(y, which)
			if err != nil {
				return nil, nil, err
			}
			b := bins[j]
			if len(keys[b]) >= pr.L {
				// Statistical failure (probability < 2^-σ), permitted by
				// the model (§4) but surfaced as an error.
				return nil, nil, fmt.Errorf("psi: sender bin %d exceeded load bound %d", b, pr.L)
			}
			keys[b] = append(keys[b], k)
			elem[b] = append(elem[b], j)
		}
	}
	return keys, elem, nil
}

// receiverKeys maps the receiver's cuckoo table to one composed key per
// bin, with dummies for empty bins.
func receiverKeys(t *cuckoo.Table) ([]uint64, error) {
	out := make([]uint64, t.B)
	var empty int64
	for b := 0; b < t.B; b++ {
		v, ok := t.BinItem(b)
		if !ok {
			out[b] = receiverDummyKey
			empty++
			continue
		}
		k, err := Compose(v, t.BinHash(b))
		if err != nil {
			return nil, err
		}
		out[b] = k
	}
	mPSIEmptyBins.Add(empty)
	return out, nil
}

// binGadget emits the gadget of one bin, shared by the direct and the
// indexed (§5.5) protocol. The evaluator (receiver) inputs what her hint
// decoded to: a τ-bit target t′ and a w-bit word u′. Everything of the
// sender's enters as garbler-private constants: the bin's target t, the
// words c and d, and his indicator share r. With eq = (t′ = t), the
// evaluator learns
//
//	eq ? u′ ⊕ c ⊕ d : d      (w bits)
//	eq ? 1 − r : −r          (ℓ bits, her indicator share)
//
// The sender programmed u′ = v ⊕ c ⊕ d for the value v a match must
// deliver, with c uniform, so the first output is v on a match and the
// default d otherwise, and u′ — which she sees — is uniform either way
// and independent of it. τ − 1 + w AND gates and ℓ single-ciphertext
// ones: one comparison per bin.
func binGadget(b *gc.Builder, tau, w, ell int) {
	t := b.EvalInputWord(tau)
	u := b.EvalInputWord(w)
	eq := b.EqPrivate(t, b.PrivateWord(tau))
	c, d := b.PrivateWord(w), b.PrivateWord(w)
	for i := range u {
		b.OutputToEval(b.XORG(b.AND(eq, b.XORG(u[i], c[i])), d[i]))
	}
	flip, negR := b.PrivateWord(ell), b.PrivateWord(ell)
	for i := range flip {
		b.OutputToEval(b.XORG(b.ANDG(eq, flip[i]), negR[i]))
	}
}

// buildCircuit constructs the batched per-bin circuit shared by both
// parties: binGadget as one slot, repeated once per bin.
func buildCircuit(pr Params, w, ell int) *gc.Circuit {
	b := gc.NewBuilder()
	binGadget(b, pr.tau(), w, ell)
	return b.BuildSlots(pr.B)
}

// recvBins is the receiver's half of the per-bin protocol for w-bit
// payloads: cuckoo table and seed, OPRF on her bin keys, hint decoding,
// and the comparison circuit. It returns her table and, per bin, the
// circuit's w-bit output and her indicator share.
func recvBins(p *mpc.Party, pr Params, w int, xs []uint64) (*cuckoo.Table, []uint64, []uint64, error) {
	table, err := cuckoo.Build(p.PRG, xs)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := p.Conn.Send(table.Seed[:]); err != nil {
		return nil, nil, nil, err
	}
	akeys, err := receiverKeys(table)
	if err != nil {
		return nil, nil, nil, err
	}
	h := pr.hint(w)
	fs, err := oprfReceive(p, h, akeys)
	if err != nil {
		return nil, nil, nil, err
	}
	bb := h.binBytes()
	hint, err := transport.RecvSized(p.Conn, "psi: hint", pr.B*bb)
	if err != nil {
		return nil, nil, nil, err
	}
	coder := newHintCoder(h, table.Seed, 0)
	evalBits := make([]bool, 0, pr.B*(h.tau+w))
	for bin, k := range akeys {
		v := coder.decode(hint[bin*bb:(bin+1)*bb], k).xor(fs[bin])
		evalBits = gc.AppendBits(evalBits, v.t, h.tau)
		evalBits = gc.AppendBits(evalBits, v.u, w)
	}
	ell := p.Ring.Bits
	bits, err := p.RunCircuit(buildCircuit(pr, w, ell), evalBits, nil, p.Role.Other())
	if err != nil {
		return nil, nil, nil, err
	}
	out, ind := make([]uint64, pr.B), make([]uint64, pr.B)
	for bin := range out {
		off := bin * (w + ell)
		out[bin] = gc.UintOfBits(bits[off : off+w])
		ind[bin] = gc.UintOfBits(bits[off+w : off+w+ell])
	}
	return table, out, ind, nil
}

// sendBins is the sender's half for distinct elements ys: per bin it
// draws the target and the mask, programs the hint so that element j
// delivers target(j, bin), and garbles the comparison circuit with
// def[bin] as the no-match output. It returns his indicator shares.
func sendBins(p *mpc.Party, pr Params, w int, ys []uint64, target func(j, bin int) uint64, def []uint64) ([]uint64, error) {
	seedMsg, err := transport.RecvSized(p.Conn, "psi: hash seed", prf.SeedSize)
	if err != nil {
		return nil, err
	}
	var seed prf.Seed
	copy(seed[:], seedMsg)
	keys, elem, err := senderBins(seed, pr, ys)
	if err != nil {
		return nil, err
	}
	h := pr.hint(w)
	oprf, err := oprfSend(p, h, pr.B)
	if err != nil {
		return nil, err
	}
	ell := p.Ring.Bits
	bb := h.binBytes()
	hint := make([]byte, pr.B*bb)
	coder := newHintCoder(h, seed, pr.L)
	vals := make([]value, pr.L)
	ind := make([]uint64, pr.B)
	priv := make([]bool, 0, pr.B*(h.tau+2*w+2*ell))
	for bin := 0; bin < pr.B; bin++ {
		t, c := p.PRG.Uint64()&lowBits(h.tau), p.PRG.Uint64()&lowBits(w)
		for i, k := range keys[bin] {
			vals[i] = value{t, target(elem[bin][i], bin) ^ c ^ def[bin]}.xor(oprf.eval(bin, k))
		}
		if err := coder.encode(hint[bin*bb:(bin+1)*bb], keys[bin], vals[:len(keys[bin])], p.PRG); err != nil {
			return nil, err
		}
		r := p.Ring.Random(p.PRG)
		ind[bin] = r
		priv = gc.AppendBits(priv, t, h.tau)
		priv = gc.AppendBits(priv, c, w)
		priv = gc.AppendBits(priv, def[bin], w)
		priv = gc.AppendBits(priv, p.Ring.Sub(1, r)^p.Ring.Neg(r), ell)
		priv = gc.AppendBits(priv, p.Ring.Neg(r), ell)
	}
	if err := p.Conn.Send(hint); err != nil {
		return nil, err
	}
	if _, err := p.RunCircuit(buildCircuit(pr, w, ell), nil, priv, p.Role); err != nil {
		return nil, err
	}
	return ind, nil
}

// mergeDuplicates folds repeated sender elements into their first
// occurrence, summing the payloads the sender knows in the clear.
func mergeDuplicates(ring share.Ring, ys, payloads []uint64) ([]uint64, []uint64) {
	first := make(map[uint64]int, len(ys))
	outY, outP := make([]uint64, 0, len(ys)), make([]uint64, 0, len(ys))
	for j, y := range ys {
		if i, dup := first[y]; dup {
			outP[i] = ring.Add(outP[i], payloads[j])
			continue
		}
		first[y] = len(outY)
		outY = append(outY, y)
		outP = append(outP, payloads[j])
	}
	return outY, outP
}

// RunReceiver executes the PSI as Alice with set xs (distinct values) and
// nSender the public size of Bob's set. Payloads are Bob's; Alice
// receives only shares.
func RunReceiver(p *mpc.Party, xs []uint64, nSender int) (*Result, error) {
	pr := NewParams(len(xs), nSender)
	sp := obs.Begin("psi", "psi.recv")
	defer sp.EndN(int64(pr.B))
	defer observeRun(pr.B, len(xs))()
	table, pay, ind, err := recvBins(p, pr, p.Ring.Bits, xs)
	if err != nil {
		return nil, err
	}
	return &Result{Params: pr, Table: table, IndShares: ind, PayShares: pay}, nil
}

// RunSender executes the PSI as Bob with set ys and aligned plaintext
// payloads; mReceiver is the public size of Alice's set. ys may contain
// duplicates: a receiver element matching several sender duplicates gets
// the sum of their payloads. (Bob merges them before programming the
// hint; its size is fixed by the public len(ys), so nothing is padded
// back.)
func RunSender(p *mpc.Party, ys, payloads []uint64, mReceiver int) (*Result, error) {
	if len(ys) != len(payloads) {
		return nil, fmt.Errorf("psi: %d elements with %d payloads", len(ys), len(payloads))
	}
	pr := NewParams(mReceiver, len(ys))
	sp := obs.Begin("psi", "psi.send")
	defer sp.EndN(int64(pr.B))
	defer observeRun(pr.B, len(ys))()
	ys, payloads = mergeDuplicates(p.Ring, ys, payloads)

	// Bob's payload share r of a bin is drawn up front: a match must hand
	// Alice pay − r, no match −r.
	res := &Result{Params: pr, PayShares: make([]uint64, pr.B)}
	def := make([]uint64, pr.B)
	for bin := range def {
		res.PayShares[bin] = p.Ring.Random(p.PRG)
		def[bin] = p.Ring.Neg(res.PayShares[bin])
	}
	var err error
	res.IndShares, err = sendBins(p, pr, p.Ring.Bits, ys,
		func(j, bin int) uint64 { return p.Ring.Sub(payloads[j], res.PayShares[bin]) }, def)
	if err != nil {
		return nil, err
	}
	return res, nil
}
