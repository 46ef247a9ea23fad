// Package psi implements circuit-friendly private set intersection, the
// primitive the Secure Yannakakis paper uses inside its oblivious semijoin
// operators (§5.3, §5.5).
//
// There is one PSI per payload kind. RunReceiver/RunSender carry a
// payload the sender knows in the clear straight through the per-bin
// protocol below: the semijoin of a child whose annotations are plaintext
// to their owner (§5.3 with the §6.5 fast path). RunSharedPayloadReceiver/
// RunSharedPayloadSender carry a secret-shared payload as an index into a
// vector two OEPs permute (§5.5, sharedpayload.go): the semijoin of a
// secret-shared child. Both run the same bins; cost.go prices each.
//
// The per-bin construction is the paper's: the OPPRF-based circuit PSI
// of Pinkas, Schneider, Tkachenko and Yanai (reference [27]; DESIGN.md §5
// says which of its building blocks are substituted). The receiver (Alice)
// cuckoo-hashes her set into B = 1.27·M bins using 3 hash functions; the
// sender (Bob) simple-hashes every element of his set into all 3
// candidate bins. Per bin the parties run an oblivious PRF on Alice's
// one item: one KKRT batch over all bins (oprf.go), 64 bytes per bin,
// whose base OTs are random OTs of the parties' IKNP session
// (mpc.Party.KKRTSender). Bob draws a random τ-bit target t_b per bin
// and sends one hint for all bins, an OKVS of public size (hint.go),
// that, unmasked with a bin's PRF, decodes at each of his keys of the
// bin to t_b and a masked payload u′, and to noise elsewhere. A
// garbled circuit then does ONE comparison per bin — Alice's decoded
// target against t_b — and nothing else: the comparison bit keys a
// garbled select (gc.Builder.OutputSelect) that hands Alice her
// indicator share and, folded with one correlated OT per bin that moves
// u′ outside the circuit, the matching payload or a default. The result
// is, for every bin, an intersection indicator and the matching payload
// (or 0) in secret-shared form.
//
// Elements are composed with the index of the hash function that placed
// them, so that an element of X placed by h_i only matches a copy of the
// same element inserted under h_i. Element values must fit in 62 bits;
// the remaining tag value encodes the receiver's dummy, so an empty bin
// can never match anything.
package psi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"secyan/internal/cuckoo"
	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/prf"
	"secyan/internal/share"
	"secyan/internal/transport"
)

// The PSI kernels, measured per execution in cuckoo bins B, on both
// sides of the direct (plain-payload) and indexed (shared-payload) PSI.
var (
	kRecv        = obs.NewKernel("psi.recv")
	kSend        = obs.NewKernel("psi.send")
	kIndexedRecv = obs.NewKernel("psi.indexed.recv")
	kIndexedSend = obs.NewKernel("psi.indexed.send")
)

// Sigma is the statistical security parameter (paper §4: σ = 40): it
// bounds the hint's encoding failure and the false-positive rate of the
// per-bin comparison.
const Sigma = 40

// MaxElement is the largest set element representable: two bits are
// reserved for the hash-function tag.
const MaxElement = uint64(1)<<62 - 1

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
}

// NewParams computes the public parameters for set sizes m (receiver) and
// n (sender).
func NewParams(m, n int) Params {
	return Params{M: m, N: n, B: cuckoo.NumBins(m)}
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

// binKey is one key the sender programs: a composed key, the receiver
// bin it falls into and the index of the element it came from.
type binKey struct {
	key       uint64
	bin, elem int
}

// senderBins simple-hashes the sender's elements into the receiver's bin
// space: every element under each of the three hash functions, handed to
// put as one binKey each, so that no list of them is built. Bin indices
// are computed per hash function in batched AES sweeps (cuckoo.BinsOf).
// The elements must already have passed checkElements.
func senderBins(seed prf.Seed, pr Params, ys []uint64, put func(binKey)) {
	bins := make([]int, len(ys))
	for which := 0; which < cuckoo.NumHashes; which++ {
		cuckoo.BinsOf(seed, pr.B, ys, which, bins)
		for j, y := range ys {
			k, _ := Compose(y, which) // checked by checkElements
			put(binKey{k, bins[j], j})
		}
	}
}

// checkElements fails if an element does not fit Compose's domain.
func checkElements(ys []uint64) error {
	for _, y := range ys {
		if _, err := Compose(y, 0); err != nil {
			return err
		}
	}
	return nil
}

// receiverKeys maps the receiver's cuckoo table to one composed key per
// bin, with dummies for empty bins.
func receiverKeys(t *cuckoo.Table) ([]uint64, error) {
	out := make([]uint64, t.B)
	for b := 0; b < t.B; b++ {
		v, ok := t.BinItem(b)
		if !ok {
			out[b] = receiverDummyKey
			continue
		}
		k, err := Compose(v, t.BinHash(b))
		if err != nil {
			return nil, err
		}
		out[b] = k
	}
	return out, nil
}

// The per-bin protocol, shared by the direct and the indexed (§5.5)
// PSI, for w-bit payloads and ℓ-bit indicator shares. The
// receiver's hint decodes to a τ-bit target t′ and a w-bit word u′; the
// sender holds the bin's target t, a uniform word c, the default d and
// his indicator share r, and programmed u′ = v ⊕ c ⊕ d for the value v a
// match must deliver. The receiver must end with
//
//	d ⊕ eq·(c ⊕ u′)          (w bits: v on a match, d otherwise)
//	eq ? 1 − r : −r          (ℓ bits, her indicator share)
//
// for eq = (t′ = t). Only eq needs a circuit (binGadget). The rest is
//
//  1. the ρ-OT, before the circuit: one correlated OT per bin of w-bit
//     messages, with the roles reversed. The receiver is the OT sender
//     under the correlation x1 = x0 ⊕ u′ and keeps s = x0; the sender
//     chooses a uniform bit ρ and gets x_ρ = s ⊕ ρ·u′;
//  2. one select per bin, keyed to eq, whose word for b ∈ {0, 1} is
//     P_b = (d ⊕ b·c ⊕ x_ρ) ‖ (b ? 1 − r : −r) ‖ (b ⊕ ρ);
//  3. the receiver reads e = eq ⊕ ρ off P_eq's last bit and outputs
//     P_eq's first field ⊕ s ⊕ e·u′ = d ⊕ eq·c ⊕ (ρ ⊕ e)·u′, which is
//     d ⊕ eq·(c ⊕ u′).
//
// She sees u′, uniform whatever v is, and e, uniform because ρ is hidden
// from her; the sender sees x_ρ, uniform because s is. The ρ-OT's opening
// message follows the hint and its corrections precede the label-OT
// matrix, each in the same flight, so the bin keeps its round count.
// DESIGN.md §5 has the simulator argument.

// binGadget emits the circuit of one bin: the evaluator's τ-bit target
// t′ against the sender's garbler-private t, and one select keyed to the
// comparison bit over two garbler-private words of selWidth bits (P0 then
// P1; sendBins fills them). τ − 1 AND gates, τ evaluator inputs and two
// ⌈selWidth/8⌉-byte ciphertexts: one comparison per bin.
func binGadget(b *gc.Builder, tau, w, ell int) {
	eq := b.EqPrivate(b.EvalInputWord(tau), b.PrivateWord(tau))
	b.OutputSelect(eq, b.PrivateWord(selWidth(w, ell)), b.PrivateWord(selWidth(w, ell)))
}

// selWidth is the width of a bin's select words: the w-bit output field,
// the ℓ-bit indicator share and the e bit.
func selWidth(w, ell int) int { return w + ell + 1 }

// rhoBytes is the message width of the ρ-OT: a w-bit word in whole bytes.
func rhoBytes(w int) int { return (w + 7) / 8 }

// getWord and putWord move a little-endian word of at most 8 bytes, one
// ρ-OT message, to and from a uint64.
func getWord(b []byte) uint64 {
	var x [8]byte
	copy(x[:], b)
	return binary.LittleEndian.Uint64(x[:])
}

func putWord(dst []byte, v uint64) {
	var x [8]byte
	binary.LittleEndian.PutUint64(x[:], v)
	copy(dst, x[:])
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
// the ρ-OT and the comparison circuit. It returns her table and, per bin,
// the w-bit output and her indicator share.
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
	fs, err := oprfReceive(p, h, table.Seed, akeys)
	if err != nil {
		return nil, nil, nil, err
	}
	hint, err := transport.RecvSized(p.Conn, "psi: hint", h.bytes())
	if err != nil {
		return nil, nil, nil, err
	}
	evalBits := make([]bool, 0, pr.B*h.tau)
	us := make([]uint64, pr.B)
	for bin, k := range akeys {
		v := h.decode(hint, table.Seed, k).xor(fs[bin])
		evalBits = gc.AppendBits(evalBits, v.t, h.tau)
		us[bin] = v.u
	}
	s, err := rhoSend(p, us, w)
	if err != nil {
		return nil, nil, nil, err
	}
	ell := p.Ring.Bits
	bits, err := p.RunCircuit(buildCircuit(pr, w, ell), evalBits, nil, p.Role.Other())
	if err != nil {
		return nil, nil, nil, err
	}
	out, ind := make([]uint64, pr.B), make([]uint64, pr.B)
	n := selWidth(w, ell)
	for bin := range out {
		sel := bits[bin*n : (bin+1)*n]
		out[bin] = gc.UintOfBits(sel[:w]) ^ s[bin]
		if sel[w+ell] { // e
			out[bin] ^= us[bin]
		}
		ind[bin] = gc.UintOfBits(sel[w : w+ell])
	}
	return table, out, ind, nil
}

// rhoSend is the receiver's half of the ρ-OT, one correlated OT per
// decoded word u′ as OT sender under x1 = x0 ⊕ u′. It returns every s =
// x0, cut to w bits.
func rhoSend(p *mpc.Party, us []uint64, w int) ([]uint64, error) {
	snd, err := p.OTSender()
	if err != nil {
		return nil, err
	}
	rb := rhoBytes(w)
	x0, err := snd.SendCorrelated(len(us), rb, func(bin int, x0, x1 []byte) { putWord(x1, getWord(x0)^us[bin]) })
	if err != nil {
		return nil, err
	}
	s := make([]uint64, len(us))
	for bin := range s {
		s[bin] = getWord(x0[bin*rb:(bin+1)*rb]) & lowBits(w)
	}
	return s, nil
}

// rhoReceive is the sender's half: one correlated OT per bin as OT
// receiver, with uniform choices ρ. It returns ρ and every x_ρ = s ⊕ ρ·u′,
// cut to w bits.
func rhoReceive(p *mpc.Party, bins, w int) ([]bool, []uint64, error) {
	rcv, err := p.OTReceiver()
	if err != nil {
		return nil, nil, err
	}
	rho := make([]bool, bins)
	for bin := range rho {
		rho[bin] = p.PRG.Bool()
	}
	rb := rhoBytes(w)
	msgs, err := rcv.ReceiveCorrelated(rho, rb)
	if err != nil {
		return nil, nil, err
	}
	x := make([]uint64, bins)
	for bin := range x {
		x[bin] = getWord(msgs[bin*rb:(bin+1)*rb]) & lowBits(w)
	}
	return rho, x, nil
}

// sendBins is the sender's half for distinct elements ys: per bin it
// draws the target and the mask, programs the hint so that element j
// delivers target(j, bin) in each of its three bins, runs the ρ-OT and
// garbles the comparison circuit with def[bin] as the no-match output. It
// returns his indicator shares.
func sendBins(p *mpc.Party, pr Params, w int, ys []uint64, target func(j, bin int) uint64, def []uint64) ([]uint64, error) {
	seedMsg, err := transport.RecvSized(p.Conn, "psi: hash seed", prf.SeedSize)
	if err != nil {
		return nil, err
	}
	var seed prf.Seed
	copy(seed[:], seedMsg)
	if err := checkElements(ys); err != nil {
		return nil, err
	}
	h := pr.hint(w)
	oprf, err := oprfSend(p, h, seed, pr.B)
	if err != nil {
		return nil, err
	}
	ts, cs := make([]uint64, pr.B), make([]uint64, pr.B)
	for bin := range ts {
		ts[bin], cs[bin] = p.PRG.Uint64()&lowBits(h.tau), p.PRG.Uint64()&lowBits(w)
	}
	eqs := make([]equation, 0, cuckoo.NumHashes*len(ys))
	senderBins(seed, pr, ys, func(k binKey) {
		v := value{ts[k.bin], target(k.elem, k.bin) ^ cs[k.bin] ^ def[k.bin]}
		eqs = append(eqs, h.equation(seed, k.key, v.xor(oprf.eval(k.bin, k.key))))
	})
	hint := make([]byte, h.bytes())
	if err := h.encode(hint, eqs, p.PRG); err != nil {
		return nil, err
	}
	if err := p.Conn.Send(hint); err != nil {
		return nil, err
	}
	rho, x, err := rhoReceive(p, pr.B, w)
	if err != nil {
		return nil, err
	}
	ell := p.Ring.Bits
	n := selWidth(w, ell)
	ind := make([]uint64, pr.B)
	priv := make([]bool, 0, pr.B*(h.tau+2*n))
	for bin := range ind {
		r := p.Ring.Random(p.PRG)
		ind[bin] = r
		var e0 uint64 // P_0's e bit: ρ
		if rho[bin] {
			e0 = 1
		}
		priv = gc.AppendBits(priv, ts[bin], h.tau)
		priv = appendSelWord(priv, w, ell, def[bin]^x[bin], p.Ring.Neg(r), e0)
		priv = appendSelWord(priv, w, ell, def[bin]^cs[bin]^x[bin], p.Ring.Sub(1, r), e0^1)
	}
	if _, err := p.RunCircuit(buildCircuit(pr, w, ell), nil, priv, p.Role); err != nil {
		return nil, err
	}
	return ind, nil
}

// appendSelWord appends one select word of a bin to dst: the w-bit output
// field, the ℓ-bit indicator share and the e bit.
func appendSelWord(dst []bool, w, ell int, out, ind, e uint64) []bool {
	dst = gc.AppendBits(dst, out, w)
	dst = gc.AppendBits(dst, ind, ell)
	return gc.AppendBits(dst, e, 1)
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
	sp := kRecv.Begin()
	defer sp.EndN(int64(pr.B))
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
	sp := kSend.Begin()
	defer sp.EndN(int64(pr.B))
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
