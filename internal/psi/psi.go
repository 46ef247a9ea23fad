// Package psi implements circuit-friendly private set intersection, the
// primitive the Secure Yannakakis paper uses inside its oblivious semijoin
// operators (§5.3, §5.5).
//
// The construction is "circuit phasing" (Pinkas et al. 2015, reference
// [26] of the paper; see DESIGN.md §4 for why it substitutes for the
// OPPRF-based protocol of [27]): the receiver (Alice) cuckoo-hashes her
// set into B = 1.27·M bins using 3 hash functions; the sender (Bob)
// simple-hashes every element of his set into all 3 candidate bins,
// padding each bin to a fixed load L chosen so that overflow probability
// is below 2^-σ; a single garbled circuit then compares Alice's one item
// per bin against Bob's L entries, producing — in secret-shared form — an
// intersection indicator and the matching payload (or 0) for every bin.
//
// Elements are composed with the index of the hash function that placed
// them, so that an element of X placed by h_i only matches a copy of the
// same element inserted under h_i. Element values must fit in 62 bits;
// the two remaining tag values encode party-specific dummies, so dummy
// slots can never match anything.
package psi

import (
	"fmt"
	"time"

	"secyan/internal/cuckoo"
	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/prf"
)

// PSI metrics: executions, bin-space dimensions, and occupancy. The bin
// stats quantify the padding overhead of circuit phasing — how many of
// the L·B sender slots and B receiver bins carry real elements versus
// dummies. Collection is off until obs.Enable.
var (
	mPSIRuns      = obs.NewCounter("secyan_psi_runs_total", "PSI executions (receiver+sender sides of this process).")
	mPSIBins      = obs.NewHistogram("secyan_psi_bins", "Cuckoo bin count B per PSI execution.")
	mPSIBinLoad   = obs.NewHistogram("secyan_psi_sender_bin_load", "Real (unpadded) entries per sender bin.")
	mPSIPadded    = obs.NewCounter("secyan_psi_sender_padded_slots_total", "Dummy slots added to pad sender bins to the load bound L.")
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

// Sigma is the statistical security parameter (paper §4: σ = 40) used for
// the sender's bin-load bound.
const Sigma = 40

// MaxElement is the largest set element representable: two bits are
// reserved for the hash-function tag.
const MaxElement = uint64(1)<<62 - 1

// keyBits is the width of composed keys inside the comparison circuit.
const keyBits = 64

// receiverDummyKey fills the receiver's empty cuckoo bins; senderDummyKey
// pads the sender's bins. Both carry tag 3, which no real composed key
// has, and they differ from each other, so no dummy ever matches.
const (
	receiverDummyKey = ^uint64(0)
	senderDummyKey   = uint64(3)
)

// Compose builds the circuit key for element v placed by hash function
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
// space, padding every bin to exactly L entries. Payloads follow their
// elements; dummy entries carry payload 0. Bin indices are computed per
// hash function in batched AES sweeps (cuckoo.BinsOf); slot order within
// a bin is irrelevant to the comparison circuit, which treats the L
// entries symmetrically.
func senderBins(seed prf.Seed, pr Params, ys, payloads []uint64) (keys, pays [][]uint64, err error) {
	keys = make([][]uint64, pr.B)
	pays = make([][]uint64, pr.B)
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
			pays[b] = append(pays[b], payloads[j])
		}
	}
	if obs.Enabled() {
		for b := 0; b < pr.B; b++ {
			mPSIBinLoad.Observe(int64(len(keys[b])))
			mPSIPadded.Add(int64(pr.L - len(keys[b])))
		}
	}
	for b := 0; b < pr.B; b++ {
		for len(keys[b]) < pr.L {
			keys[b] = append(keys[b], senderDummyKey)
			pays[b] = append(pays[b], 0)
		}
	}
	return keys, pays, nil
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

// binGadget emits the comparison gadget of one bin: the evaluator
// (receiver) inputs her composed key; the sender's L keys and payloads
// enter as garbler-private constants; the sender's masks r_ind, r_pay are
// regular garbler inputs. Outputs, revealed to the evaluator:
// (ind - r_ind, pay - r_pay), each ell bits — the receiver's shares.
func binGadget(b *gc.Builder, load, ell int) {
	akey := b.EvalInputWord(keyBits)
	sels := make([]gc.Wire, load)
	var pay gc.Word
	for j := 0; j < load; j++ {
		ykey := b.PrivateWord(keyBits)
		ypay := b.PrivateWord(ell)
		sels[j] = b.EqPrivate(akey, ykey)
		masked := b.ANDGWordBit(ypay, sels[j])
		if j == 0 {
			pay = masked
		} else {
			pay = b.Add(pay, masked)
		}
	}
	ind := b.OrTree(sels)
	rInd := b.GarblerInputWord(ell)
	rPay := b.GarblerInputWord(ell)
	indWord := b.ZeroExtend(gc.Word{ind}, ell)
	b.OutputWordToEval(b.Sub(indWord, rInd))
	b.OutputWordToEval(b.Sub(pay, rPay))
}

// buildCircuit constructs the batched comparison circuit shared by both
// parties: binGadget as one slot, repeated once per bin.
func buildCircuit(pr Params, ell int) *gc.Circuit {
	b := gc.NewBuilder()
	binGadget(b, pr.L, ell)
	return b.BuildSlots(pr.B)
}

// RunReceiver executes the PSI as Alice with set xs (distinct values) and
// nSender the public size of Bob's set. Payloads are Bob's; Alice
// receives only shares.
func RunReceiver(p *mpc.Party, xs []uint64, nSender int) (*Result, error) {
	pr := NewParams(len(xs), nSender)
	sp := obs.Begin("psi", "psi.recv")
	defer sp.EndN(int64(pr.B))
	defer observeRun(pr.B, len(xs))()
	table, err := cuckoo.Build(p.PRG, xs)
	if err != nil {
		return nil, err
	}
	if err := p.Conn.Send(table.Seed[:]); err != nil {
		return nil, err
	}
	akeys, err := receiverKeys(table)
	if err != nil {
		return nil, err
	}
	ell := p.Ring.Bits
	circ := buildCircuit(pr, ell)
	evalBits := make([]bool, 0, pr.B*keyBits)
	for _, k := range akeys {
		evalBits = gc.AppendBits(evalBits, k, keyBits)
	}
	out, err := p.RunCircuit(circ, evalBits, nil, p.Role.Other())
	if err != nil {
		return nil, err
	}
	res := &Result{Params: pr, Table: table,
		IndShares: make([]uint64, pr.B), PayShares: make([]uint64, pr.B)}
	for bin := 0; bin < pr.B; bin++ {
		off := bin * 2 * ell
		res.IndShares[bin] = gc.UintOfBits(out[off : off+ell])
		res.PayShares[bin] = gc.UintOfBits(out[off+ell : off+2*ell])
	}
	return res, nil
}

// RunSender executes the PSI as Bob with set ys and aligned plaintext
// payloads; mReceiver is the public size of Alice's set. ys may contain
// duplicates: a receiver element matching several sender duplicates gets
// the sum of their payloads.
func RunSender(p *mpc.Party, ys, payloads []uint64, mReceiver int) (*Result, error) {
	if len(ys) != len(payloads) {
		return nil, fmt.Errorf("psi: %d elements with %d payloads", len(ys), len(payloads))
	}
	pr := NewParams(mReceiver, len(ys))
	sp := obs.Begin("psi", "psi.send")
	defer sp.EndN(int64(pr.B))
	defer observeRun(pr.B, len(ys))()
	seedMsg, err := p.Conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(seedMsg) != prf.SeedSize {
		return nil, fmt.Errorf("psi: bad hash seed length %d", len(seedMsg))
	}
	var seed prf.Seed
	copy(seed[:], seedMsg)

	keys, pays, err := senderBins(seed, pr, ys, payloads)
	if err != nil {
		return nil, err
	}
	ell := p.Ring.Bits
	circ := buildCircuit(pr, ell)

	res := &Result{Params: pr,
		IndShares: make([]uint64, pr.B), PayShares: make([]uint64, pr.B)}
	garblerBits := make([]bool, 0, pr.B*2*ell)
	privBits := make([]bool, 0, pr.B*pr.L*(keyBits+ell))
	for bin := 0; bin < pr.B; bin++ {
		for j := 0; j < pr.L; j++ {
			privBits = gc.AppendBits(privBits, keys[bin][j], keyBits)
			privBits = gc.AppendBits(privBits, p.Ring.Mask(pays[bin][j]), ell)
		}
		rInd := p.Ring.Random(p.PRG)
		rPay := p.Ring.Random(p.PRG)
		res.IndShares[bin] = rInd
		res.PayShares[bin] = rPay
		garblerBits = gc.AppendBits(garblerBits, rInd, ell)
		garblerBits = gc.AppendBits(garblerBits, rPay, ell)
	}
	if _, err := p.RunCircuit(circ, garblerBits, privBits, p.Role); err != nil {
		return nil, err
	}
	return res, nil
}
