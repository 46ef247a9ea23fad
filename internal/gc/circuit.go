// Package gc implements Yao's garbled circuits, the generic 2PC primitive
// the Secure Yannakakis paper uses for all "small" computations: merge
// gates in oblivious aggregation, annotation products in oblivious
// semijoins, zero tests in the oblivious join, and the final division of
// composed queries (paper §5.2, §6, §7).
//
// The garbling scheme is free-XOR, point-and-permute and three-halves
// garbling (Rosulek–Roy, CRYPTO 2021: three 64-bit half-ciphertexts and 5
// control bits per AND gate, nothing per XOR/NOT gate; andgate.go), over
// 128-bit wire labels hashed with a fixed-key AES MMO hash. The
// free-XOR offset is the garbler's SoftSpoken OT-extension Δ (package
// ot), so the evaluator's input labels are the rows of one Δ-OT batch. Evaluating a circuit takes a constant number of
// communication rounds regardless of its depth, the property the paper
// relies on for its constant-round operator protocols.
//
// A Circuit is one slot of gates repeated Slots times, and garbling,
// evaluation, ahead-of-time correction and plaintext evaluation all run
// on one slot-parallel kernel (forBatches): memory beyond the protocol
// messages is O(workers × slot), not O(circuit).
package gc

import (
	"fmt"

	"secyan/internal/parallel"
)

// Wire identifies a Boolean wire in a circuit.
type Wire int32

// GateKind enumerates the gate types of a circuit. NOT gates are free
// (label-flip); XOR gates are free under free-XOR; only AND gates cost
// communication (AndTableBits each), and ANDG gates (AndGTableBits).
type GateKind uint8

const (
	// GateXOR computes Out = A ^ B.
	GateXOR GateKind = iota
	// GateAND computes Out = A & B.
	GateAND
	// GateNOT computes Out = !A (B is unused).
	GateNOT
	// GateXORG computes Out = A ^ p, where p is the garbler-private bit
	// with index B. Free: the garbler flips the wire's semantics, the
	// evaluator passes the label through. The evaluator never learns p.
	GateXORG
	// GateANDG computes Out = A & p for garbler-private bit index B, as a
	// single-ciphertext garbler half gate: the evaluator knows nothing of
	// p, so one 128-bit ciphertext under A's labels suffices.
	GateANDG
)

// Gate is one Boolean gate; inputs must be earlier wires (the builder
// guarantees topological order).
type Gate struct {
	Kind GateKind
	A, B Wire
	Out  Wire
}

// Circuit is an immutable Boolean circuit produced by a Builder: one
// slot — a gate list over slot-local wires — repeated Slots times. The
// operator protocols run one small gadget per tuple or per hash bin;
// describing the gadget once keeps construction, garbling scratch and
// evaluation scratch O(slot) however many tuples there are. A circuit
// that is not a replicated gadget (the merge chain, the ratio and
// baseline circuits) is simply Slots == 1.
//
// NumWires, Gates, the input/output wire lists and NumAnd/NumAndG/
// NumPrivate describe ONE slot. Everything a party supplies or receives
// is slot-major: slot 0's garbler inputs, then slot 1's, and likewise
// evaluator inputs, private bits and both output lists. The slots share
// nothing but the Const0 label, so the wire layout is exactly that of
// the same gadget looped Slots times in one builder. DimsOf, TableBlocks
// and NumGates report whole-circuit totals.
type Circuit struct {
	// Slots is the number of times the slot repeats.
	Slots    int
	NumWires int
	Gates    []Gate
	// Const0 is a wire fixed to false; the garbler transmits its label.
	Const0 Wire
	// GarblerInputs and EvalInputs list a slot's input wires in the order
	// the parties supply their bits.
	GarblerInputs []Wire
	EvalInputs    []Wire
	// EvalOutputs and GarblerOutputs list a slot's output wires revealed
	// to the respective party, in the order results are returned.
	EvalOutputs    []Wire
	GarblerOutputs []Wire
	// NumAnd is the number of AND gates in a slot; NumAndG the number of
	// ANDG gates. Together they determine the table size (tableLayout).
	NumAnd  int
	NumAndG int
	// NumPrivate is the number of garbler-private bits a slot's XORG/ANDG
	// gates and payloads reference. The garbler supplies them separately
	// from its regular inputs; they cost no wire labels on the network.
	NumPrivate int
	// Payloads lists a slot's payloads (Builder.OutputPayloadIf and
	// Builder.OutputSelect) in the order the evaluator receives them: a
	// slot delivers its EvalOutputs with each payload's bits inserted
	// after the first Out of them.
	Payloads []Payload
}

// Payload is a garbler-private word the evaluator receives through the
// labels of a keying wire W, with no gate touching the word. Its pads are
// hashes of W's labels. The two modes share everything but the
// ciphertext count:
//
//   - keyed (Select false): W is revealed as the evaluator output
//     EvalOutputs[Out-1], and she reads P1 when W is 1 and zeros
//     otherwise. One ciphertext, under W's 1-label; P0 is nil.
//   - select (Select true): W stays hidden, and she reads P1 when W is 1
//     and P0 when W is 0. Two ciphertexts, one under each label, ordered
//     by the labels' colour bits, so the one her label's colour points at
//     is hers.
type Payload struct {
	W      Wire
	Out    int
	Select bool
	P0, P1 []PBit
}

// ctBytes is the length of one of the payload's ciphertexts.
func (p *Payload) ctBytes() int { return (len(p.P1) + 7) / 8 }

// bytes is the length of all of the payload's ciphertexts.
func (p *Payload) bytes() int {
	if p.Select {
		return 2 * p.ctBytes()
	}
	return p.ctBytes()
}

// payloadShape returns a slot's payload bits (what the evaluator
// receives beyond EvalOutputs) and payload ciphertext bytes.
func (c *Circuit) payloadShape() (bits, bytes int) {
	for i := range c.Payloads {
		bits += len(c.Payloads[i].P1)
		bytes += c.Payloads[i].bytes()
	}
	return bits, bytes
}

// evalOutBits is the number of bits a slot delivers to the evaluator:
// its EvalOutputs and every payload's bits.
func (c *Circuit) evalOutBits() int {
	bits, _ := c.payloadShape()
	return len(c.EvalOutputs) + bits
}

// AndTableBits and AndGTableBits are what one gate adds to a garbled
// table: an AND's three 64-bit half-ciphertexts and 5 control bits, an
// ANDG's one 128-bit ciphertext. The control bits of a circuit are packed
// together, so only the circuit's table rounds up to whole bytes.
const (
	AndTableBits  = 3*64 + 5
	AndGTableBits = 128
)

// tableLayout returns the byte offsets, within a circuit's garbled tables
// of ands ANDs and andGs ANDGs (whole-circuit totals), of the packed
// control bits and of the ANDG ciphertexts, and the tables' length: the
// ANDs' half-ciphertexts come first, 24 bytes per AND, slot-major.
func tableLayout(ands, andGs int) (ctl, andg, end int) {
	ctl = 24 * ands
	andg = ctl + (5*ands+7)/8
	return ctl, andg, andg + 16*andGs
}

// slotTweaks is the number of hash tweaks one slot consumes: three per
// AND gate (its hashes of A, B and A⊕B), one per ANDG gate.
func (c *Circuit) slotTweaks() int { return 3*c.NumAnd + c.NumAndG }

// TableBlocks returns the length of the whole circuit's garbled tables in
// 16-byte units, rounded up.
func (c *Circuit) TableBlocks() int {
	_, _, end := tableLayout(c.Slots*c.NumAnd, c.Slots*c.NumAndG)
	return (end + 15) / 16
}

// NumGates returns the number of gates of the whole circuit (all kinds,
// free gates included).
func (c *Circuit) NumGates() int { return c.Slots * len(c.Gates) }

// Prepare does nothing: the slot kernel needs no per-circuit preparation.
// It exists because bench/probes.go, which the repository's benchmark
// freezes, calls it.
func (c *Circuit) Prepare() {}

// lanes is the number of consecutive slots a worker sweeps together,
// gate by gate, so that each hash of a gate fills the fused MMO kernel's
// eight lanes once (prf.HashTweaks). It also makes every batch own whole
// bytes of the slot-major packed bit vectors (8·k bits per batch, 40 per
// AND of the control bits), which is what lets workers write decode and
// control bits without synchronisation.
const lanes = 8

// forBatches partitions the slots into batches of up to lanes consecutive
// slots and runs body(scratch, s0, k) for each — slots s0 … s0+k-1 — on
// the worker pool. Batch boundaries depend on Slots alone, and every
// kernel derives what it reads and writes from the slot index, so results
// are byte-identical at any worker count. A worker keeps its scratch
// from one chunk of batches to the next — a used scratch is as good as a
// fresh one, since a kernel writes a wire before reading it or, like
// applyPrivate's input wires, never writes it at all — so a call
// allocates O(workers) scratches, however many slots there are. release,
// when not nil, takes back the scratches the call kept at its end.
func forBatches[T any](c *Circuit, scratch func() T, release func(T), body func(w T, s0, k int)) {
	// About Workers() chunks run at once, so that many scratches exist;
	// neither side of the free list blocks should the pool be resized.
	free := make(chan T, parallel.Workers())
	parallel.For((c.Slots+lanes-1)/lanes, 1, func(lo, hi int) {
		var w T
		select {
		case w = <-free:
		default:
			w = scratch()
		}
		for b := lo; b < hi; b++ {
			s0 := b * lanes
			body(w, s0, min(lanes, c.Slots-s0))
		}
		select {
		case free <- w:
		default:
		}
	})
	for release != nil && len(free) > 0 {
		release(<-free)
	}
}

// Builder constructs circuits. The zero value is not usable; call
// NewBuilder.
type Builder struct {
	nWires int
	gates  []Gate
	const0 Wire
	gIn    []Wire
	eIn    []Wire
	eOut   []Wire
	gOut   []Wire
	nAnd   int
	nAndG  int
	nPriv  int
	pays   []Payload
	built  bool
	// cache for NOT-of-wire so repeated negations reuse a single gate
	notCache map[Wire]Wire
}

// PBit indexes a garbler-private bit (see GateXORG/GateANDG).
type PBit int32

// NewBuilder returns an empty circuit builder with the constant-false
// wire already allocated.
func NewBuilder() *Builder {
	b := &Builder{notCache: make(map[Wire]Wire)}
	b.const0 = b.newWire()
	return b
}

func (b *Builder) newWire() Wire {
	w := Wire(b.nWires)
	b.nWires++
	return w
}

// Const0 returns the constant-false wire.
func (b *Builder) Const0() Wire { return b.const0 }

// Const1 returns a constant-true wire.
func (b *Builder) Const1() Wire { return b.Not(b.const0) }

// ConstBit returns a wire fixed to the given value.
func (b *Builder) ConstBit(v bool) Wire {
	if v {
		return b.Const1()
	}
	return b.Const0()
}

// GarblerInput allocates one garbler-supplied input bit.
func (b *Builder) GarblerInput() Wire {
	w := b.newWire()
	b.gIn = append(b.gIn, w)
	return w
}

// EvalInput allocates one evaluator-supplied input bit.
func (b *Builder) EvalInput() Wire {
	w := b.newWire()
	b.eIn = append(b.eIn, w)
	return w
}

// XOR emits x ^ y.
func (b *Builder) XOR(x, y Wire) Wire {
	out := b.newWire()
	b.gates = append(b.gates, Gate{GateXOR, x, y, out})
	return out
}

// AND emits x & y.
func (b *Builder) AND(x, y Wire) Wire {
	out := b.newWire()
	b.gates = append(b.gates, Gate{GateAND, x, y, out})
	b.nAnd++
	return out
}

// Not emits !x (free).
func (b *Builder) Not(x Wire) Wire {
	if w, ok := b.notCache[x]; ok {
		return w
	}
	out := b.newWire()
	b.gates = append(b.gates, Gate{GateNOT, x, x, out})
	b.notCache[x] = out
	return out
}

// OR emits x | y (one AND gate: x|y = (x^y) ^ (x&y)).
func (b *Builder) OR(x, y Wire) Wire {
	return b.XOR(b.XOR(x, y), b.AND(x, y))
}

// Mux emits sel ? x : y, one AND gate per call.
func (b *Builder) Mux(sel, x, y Wire) Wire {
	return b.XOR(y, b.AND(sel, b.XOR(x, y)))
}

// PrivateBit allocates one garbler-private bit. It is free on the wire:
// the garbler folds its value into the gates that consume it. Use it for
// garbler-side constants (e.g. the PSI sender's keys and payloads) that
// would otherwise waste a 128-bit input label per bit.
func (b *Builder) PrivateBit() PBit {
	p := PBit(b.nPriv)
	b.nPriv++
	return p
}

// PrivateWord allocates n garbler-private bits.
func (b *Builder) PrivateWord(n int) []PBit {
	ps := make([]PBit, n)
	for i := range ps {
		ps[i] = b.PrivateBit()
	}
	return ps
}

// XORG emits x ^ p for a garbler-private bit (free).
func (b *Builder) XORG(x Wire, p PBit) Wire {
	out := b.newWire()
	b.gates = append(b.gates, Gate{GateXORG, x, Wire(p), out})
	return out
}

// ANDG emits x & p for a garbler-private bit (one ciphertext).
func (b *Builder) ANDG(x Wire, p PBit) Wire {
	out := b.newWire()
	b.gates = append(b.gates, Gate{GateANDG, x, Wire(p), out})
	b.nAndG++
	return out
}

// XORGWord XORs a garbler-private word into x (free).
func (b *Builder) XORGWord(x Word, ps []PBit) Word {
	if len(x) != len(ps) {
		// Builder misuse: circuits are built in-process from public
		// shapes, so no peer message can reach this.
		panic("gc: XORGWord width mismatch")
	}
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.XORG(x[i], ps[i])
	}
	return out
}

// EqPrivate returns a wire that is 1 iff the public-wire word x equals the
// garbler-private word ps. It costs len-1 AND gates (the XORs are free).
func (b *Builder) EqPrivate(x Word, ps []PBit) Wire {
	return b.IsZero(b.XORGWord(x, ps))
}

// OutputToEval marks w as an output revealed to the evaluator.
func (b *Builder) OutputToEval(w Wire) { b.eOut = append(b.eOut, w) }

// OutputToGarbler marks w as an output revealed to the garbler.
func (b *Builder) OutputToGarbler(w Wire) { b.gOut = append(b.gOut, w) }

// OutputPayloadIf reveals w to the evaluator and, when w is 1, the
// garbler-private word ps as well. No gate touches ps: the garbler
// encrypts it under a hash of w's 1-label with a fresh tweak per payload
// and slot (prf.SitePay), so it costs ⌈len(ps)/8⌉ bytes of ciphertext, and
// an evaluator holding w's 0-label learns nothing of it. The evaluator
// receives w's bit followed by ps, or by zeros when w is 0.
func (b *Builder) OutputPayloadIf(w Wire, ps []PBit) {
	b.OutputToEval(w)
	b.pays = append(b.pays, Payload{W: w, Out: len(b.eOut), P1: ps})
}

// OutputSelect delivers to the evaluator the garbler-private word p1 when
// w is 1 and p0 when w is 0, without revealing w. No gate touches either
// word: the garbler encrypts p0 under a hash of w's 0-label and p1 under
// one of its 1-label (both with the payload's prf.SitePay tweak) and sends
// the two ciphertexts in colour-bit order, so the evaluator opens the one
// her label's colour points at. That costs 2·⌈len(p1)/8⌉ bytes. Her bits
// follow the evaluator outputs declared so far. She learns p_w, which
// tells her w only if the two words do.
func (b *Builder) OutputSelect(w Wire, p0, p1 []PBit) {
	if len(p0) != len(p1) || len(p1) == 0 {
		// Builder misuse: circuits are built in-process from public
		// shapes, so no peer message can reach this.
		panic("gc: OutputSelect needs two words of one nonzero width")
	}
	b.pays = append(b.pays, Payload{W: w, Out: len(b.eOut), Select: true, P0: p0, P1: p1})
}

// Build finalizes a single-slot circuit: the gates are the whole graph.
// The builder must not be used afterwards.
func (b *Builder) Build() *Circuit { return b.BuildSlots(1) }

// BuildSlots finalizes the circuit as the described slot repeated slots
// times (see Circuit). slots == 0 is the empty circuit. The builder must
// not be used afterwards.
func (b *Builder) BuildSlots(slots int) *Circuit {
	// Builder misuse: circuits are built in-process, their slot counts
	// from public cardinalities, so no peer message can reach either.
	if b.built {
		panic("gc: Build called twice")
	}
	if slots < 0 {
		panic("gc: negative slot count")
	}
	b.built = true
	return &Circuit{
		Slots:          slots,
		NumWires:       b.nWires,
		Gates:          b.gates,
		Const0:         b.const0,
		GarblerInputs:  b.gIn,
		EvalInputs:     b.eIn,
		EvalOutputs:    b.eOut,
		GarblerOutputs: b.gOut,
		NumAnd:         b.nAnd,
		NumAndG:        b.nAndG,
		NumPrivate:     b.nPriv,
		Payloads:       b.pays,
	}
}

// Validate checks the slot's wire ordering invariants — every kernel
// indexes its scratch by them unchecked; used by tests and when accepting
// circuits from untrusted descriptions.
func (c *Circuit) Validate() error {
	if c.Slots < 0 {
		return fmt.Errorf("gc: negative slot count %d", c.Slots)
	}
	defined := make([]bool, c.NumWires)
	mark := func(w Wire) error {
		if int(w) >= c.NumWires || w < 0 {
			return fmt.Errorf("gc: wire %d out of range", w)
		}
		defined[w] = true
		return nil
	}
	if err := mark(c.Const0); err != nil {
		return err
	}
	for _, w := range c.GarblerInputs {
		if err := mark(w); err != nil {
			return err
		}
	}
	for _, w := range c.EvalInputs {
		if err := mark(w); err != nil {
			return err
		}
	}
	for _, g := range c.Gates {
		if int(g.A) >= c.NumWires || int(g.Out) >= c.NumWires {
			return fmt.Errorf("gc: gate wires out of range: %+v", g)
		}
		switch g.Kind {
		case GateXORG, GateANDG:
			if int(g.B) >= c.NumPrivate || g.B < 0 {
				return fmt.Errorf("gc: gate references private bit %d of %d: %+v", g.B, c.NumPrivate, g)
			}
		case GateNOT:
		default:
			if int(g.B) >= c.NumWires || g.B < 0 || !defined[g.B] {
				return fmt.Errorf("gc: gate reads undefined wire: %+v", g)
			}
		}
		if !defined[g.A] {
			return fmt.Errorf("gc: gate reads undefined wire: %+v", g)
		}
		if defined[g.Out] {
			return fmt.Errorf("gc: wire %d defined twice", g.Out)
		}
		defined[g.Out] = true
	}
	for _, w := range append(append([]Wire{}, c.EvalOutputs...), c.GarblerOutputs...) {
		if int(w) >= c.NumWires || !defined[w] {
			return fmt.Errorf("gc: output wire %d undefined", w)
		}
	}
	prev := 0
	for _, p := range c.Payloads {
		if p.Out < prev || p.Out > len(c.EvalOutputs) {
			return fmt.Errorf("gc: payloads out of evaluator-output order")
		}
		prev = p.Out
		switch {
		case !p.Select && (p.Out == 0 || c.EvalOutputs[p.Out-1] != p.W || p.P0 != nil):
			return fmt.Errorf("gc: payload keyed to wire %d is not evaluator output %d", p.W, p.Out-1)
		case p.Select && (len(p.P0) != len(p.P1) || len(p.P1) == 0):
			return fmt.Errorf("gc: select words of widths %d and %d", len(p.P0), len(p.P1))
		case int(p.W) >= c.NumWires || p.W < 0 || !defined[p.W]:
			return fmt.Errorf("gc: payload keyed to undefined wire %d", p.W)
		}
		for _, word := range [2][]PBit{p.P0, p.P1} {
			for _, pb := range word {
				if pb < 0 || int(pb) >= c.NumPrivate {
					return fmt.Errorf("gc: payload references private bit %d of %d", pb, c.NumPrivate)
				}
			}
		}
	}
	return nil
}

// EvalPlain evaluates the circuit in the clear; used by tests and by the
// garbled-circuit cost baseline. All three inputs are slot-major;
// privBits supplies the garbler-private bits (may be nil when the
// circuit uses none). Returns evaluator-destined and garbler-destined
// outputs, slot-major, with the payloads' bits where Circuit.Payloads
// places them, as RunEvaluator delivers them.
func (c *Circuit) EvalPlain(garblerBits, evalBits, privBits []bool) (evalOut, garblerOut []bool, err error) {
	nG, nE, nP := len(c.GarblerInputs), len(c.EvalInputs), c.NumPrivate
	if len(garblerBits) != c.Slots*nG || len(evalBits) != c.Slots*nE || len(privBits) != c.Slots*nP {
		return nil, nil, fmt.Errorf("gc: EvalPlain input count mismatch (%d/%d garbler, %d/%d eval, %d/%d private)",
			len(garblerBits), c.Slots*nG, len(evalBits), c.Slots*nE, len(privBits), c.Slots*nP)
	}
	nEO, nGO := c.evalOutBits(), len(c.GarblerOutputs)
	evalOut = make([]bool, c.Slots*nEO)
	garblerOut = make([]bool, c.Slots*nGO)
	forBatches(c, func() []bool { return make([]bool, c.NumWires) }, nil, func(vals []bool, s0, k int) {
		for s := s0; s < s0+k; s++ {
			for i, w := range c.GarblerInputs {
				vals[w] = garblerBits[s*nG+i]
			}
			for i, w := range c.EvalInputs {
				vals[w] = evalBits[s*nE+i]
			}
			priv := privBits[s*nP : (s+1)*nP]
			for _, g := range c.Gates {
				switch g.Kind {
				case GateXOR:
					vals[g.Out] = vals[g.A] != vals[g.B]
				case GateAND:
					vals[g.Out] = vals[g.A] && vals[g.B]
				case GateNOT:
					vals[g.Out] = !vals[g.A]
				case GateXORG:
					vals[g.Out] = vals[g.A] != priv[g.B]
				case GateANDG:
					vals[g.Out] = vals[g.A] && priv[g.B]
				}
			}
			o, i := s*nEO, 0
			for j := 0; j <= len(c.Payloads); j++ {
				end := len(c.EvalOutputs)
				if j < len(c.Payloads) {
					end = c.Payloads[j].Out
				}
				for ; i < end; i++ {
					evalOut[o] = vals[c.EvalOutputs[i]]
					o++
				}
				if j == len(c.Payloads) {
					break
				}
				p := &c.Payloads[j]
				word := p.P0 // nil for a keyed payload: zeros
				if vals[p.W] {
					word = p.P1
				}
				for k := range p.P1 {
					evalOut[o] = k < len(word) && priv[word[k]]
					o++
				}
			}
			for i, w := range c.GarblerOutputs {
				garblerOut[s*nGO+i] = vals[w]
			}
		}
	})
	return evalOut, garblerOut, nil
}
