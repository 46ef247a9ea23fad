package gc

import (
	"fmt"

	"secyan/internal/obs"
	"secyan/internal/ot"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// This file implements ahead-of-time garbling. A circuit whose shape is
// known from the plan is garbled offline with every garbler-private bit
// set to zero; when the real private bits arrive, applyPrivate rewrites
// the garbled material in place with XORs only — no re-hashing — so the
// expensive 6-hashes-per-AND garbling kernel moves entirely off the
// online critical path.
//
// Why this is possible: free-XOR garbling represents the one-label of a
// wire as zeroLabel ⊕ Δ. Flipping a private bit only swaps which of the
// two labels is "zero" on the wires it feeds (a flip that propagates
// through the circuit as f_out = f_a ⊕ f_b for XOR and so on). In colour
// coordinates nothing moves but the zero labels' colours λ: the colour-0
// labels, and with them every hash an AND gate makes, stay. An ANDG
// ciphertext changes by p·Δ; an AND's half-ciphertexts and control bits
// change by what the new λ asks of its control values (andgate.go), a
// function of Δ and of two halves of its colour-0 labels that the offline
// garbling keeps. All of it is computable from the offline material
// alone, and — because garble() draws its randomness in a
// private-independent order — the corrected material is byte-identical
// to what a direct garble of the same seed and true private bits would
// have produced; precompute_test.go pins this equality.
//
// The evaluator-input labels are fixed offline too: a circuit is garbled
// ahead of time over the rows of its own pooled label batch
// (ot.Sender.FillDelta), under the sender's Δ. Online the evaluator's
// derandomization bits d_j flip the meaning of its input wires exactly as
// a private bit flips an XORG gate's output, so applyPrivate seeds those
// wires' flips with d_j and propagates them with the private bits' (the
// corrected material is a direct garble with zero labels q_j ⊕ d_j·Δ).
// GarbleOver leaves the material on its batch, so it goes through the OT
// pool with the rows it was garbled over, and runGarbler finds it on the
// batch the label OT opens.

// PreGarbled is a circuit garbled ahead of time, waiting for its online
// inputs. It is single-use: RunOnline consumes the garbled material.
type PreGarbled struct {
	C  *Circuit
	gb *garbled
}

// Ahead-of-time garbling metrics, mirroring the OT pool's hit/miss pair:
// every circuit garbled is one or the other.
var (
	mPreCircHits   = obs.NewCounter("secyan_gc_precircuit_hit_total", "Circuits served from material garbled ahead of time over their label batch.")
	mPreCircMisses = obs.NewCounter("secyan_gc_precircuit_miss_total", "Circuits garbled online (their label batch carried no material, or material of another shape).")
)

// GarbleOver garbles c before its inputs or private bits are known, over
// the pooled label batch b of otSend (FillDelta of c's evaluator-input
// count) and leaves it on b, for runGarbler to serve when b opens. Pure
// computation — nothing touches the network until then. Besides the
// message-shaped material every garbling keeps, it retains two permute
// bits and two colour-0 label halves per AND and one permute bit per ANDG
// (garbled.perm, garbled.corr): all applyPrivate needs of the interior
// wires.
func GarbleOver(c *Circuit, otSend *ot.Sender, b *ot.DeltaBatch) (*PreGarbled, error) {
	if nE := c.Slots * len(c.EvalInputs); b == nil || len(b.Q) != nE {
		return nil, fmt.Errorf("gc: garbling a circuit of %d evaluator inputs over another label batch", nE)
	}
	ck, err := keyOver(c, otSend, b)
	if err != nil {
		return nil, err
	}
	zero := make([]bool, c.Slots*c.NumPrivate)
	pg := &PreGarbled{C: c, gb: garble(c, ck, prf.NewPRG(prf.RandomSeed()), zero, true, b.Q)}
	b.Garbled = pg
	return pg, nil
}

// GarbleAhead garbles c with no label batch, under a key of its own and
// zero labels drawn at random. No online run serves such material — its
// labels are no OT's, and no batch carries it — so RunOnline drops it for
// a fresh garble; it measures the garbling kernel.
func GarbleAhead(c *Circuit) *PreGarbled {
	g := prf.NewPRG(prf.RandomSeed())
	var ck circuitKey
	g.Read(ck.delta[:])
	ck.delta[15] |= 1
	zero := make([]bool, c.Slots*c.NumPrivate)
	return &PreGarbled{C: c, gb: garble(c, ck, g, zero, true, nil)}
}

// SameShape reports whether two circuits have identical dimensions. The
// operators build circuits deterministically from public cardinalities,
// so dimension equality is how the runtime recognizes that a pre-built
// circuit is the one the current step would have built. The same slot
// repeated a different number of times is a different shape.
func SameShape(a, b *Circuit) bool {
	aBits, aBytes := a.payloadShape()
	bBits, bBytes := b.payloadShape()
	return a.Slots == b.Slots &&
		len(a.Payloads) == len(b.Payloads) && aBits == bBits && aBytes == bBytes &&
		a.NumWires == b.NumWires &&
		len(a.Gates) == len(b.Gates) &&
		a.NumAnd == b.NumAnd &&
		a.NumAndG == b.NumAndG &&
		a.NumPrivate == b.NumPrivate &&
		a.Const0 == b.Const0 &&
		len(a.GarblerInputs) == len(b.GarblerInputs) &&
		len(a.EvalInputs) == len(b.EvalInputs) &&
		len(a.EvalOutputs) == len(b.EvalOutputs) &&
		len(a.GarblerOutputs) == len(b.GarblerOutputs)
}

// applyPrivate specializes zero-private garbled material to the true
// private bits and the label batch's input flips (packed, slot-major;
// nil for none), in place: it moves the tables of the gates whose input
// colours changed (correctAND for an AND, p·Δ for an ANDG), flips the
// decode and output permute bits of the output wires whose label meaning
// changed and XORs the payloads — re-padded, or for a select swapped
// between its ciphertexts, where their keying wire flipped — into their
// ciphertexts, after which gb is what a direct garble with the same
// randomness would have produced. The slot
// kernel again, one slot at a time over a scratch of per-wire flip bits
// f (the evaluator-input wires take the slot's flips; the other input
// wires are never written, so they stay unflipped across slots); each
// gate sees its input flips resolved because the gate list is
// topologically ordered.
func applyPrivate(c *Circuit, gb *garbled, priv []bool, flips []byte) {
	sp := obs.Begin("gc", "gc.correct")
	defer sp.EndN(int64(c.NumGates()))
	labelsOff, decodeOff, payOff, _ := c.msgLayout()
	ctlOff, andgOff, _ := tableLayout(c.Slots*c.NumAnd, c.Slots*c.NumAndG)
	halvesCt, ctl := gb.msg[:ctlOff], gb.msg[ctlOff:andgOff]
	andgCt := prf.BlocksOf(gb.msg[andgOff:labelsOff])
	decode := gb.msg[decodeOff:payOff]
	pay := gb.msg[payOff:]
	delta := gb.delta
	sperm, nP, nE := c.slotPerms(), c.NumPrivate, len(c.EvalInputs)
	nEO, nGO := len(c.EvalOutputs), len(c.GarblerOutputs)
	_, pb := c.payloadShape()
	forBatches(c, func() []bool { return make([]bool, c.NumWires) }, nil, func(f []bool, s0, k int) {
		perm := gb.perm[s0/lanes*sperm:][:sperm]
		for l := 0; l < k; l++ {
			s := s0 + l
			p := priv[s*nP:][:nP]
			if flips != nil {
				for i, x := range c.EvalInputs {
					if f[x] = getBit(flips, s*nE+i); f[x] {
						prf.XORBlock(&gb.evalIn[s*nE+i], gb.evalIn[s*nE+i], delta)
					}
				}
			}
			nAnd, nAndG := 0, 0
			for _, gate := range c.Gates {
				switch gate.Kind {
				case GateXOR:
					f[gate.Out] = f[gate.A] != f[gate.B]
				case GateNOT:
					f[gate.Out] = f[gate.A]
				case GateXORG:
					f[gate.Out] = f[gate.A] != p[gate.B]
				case GateAND:
					fa, fb := b2u(f[gate.A]), b2u(f[gate.B])
					pi := 2*nAnd + nAndG
					la, lb := perm[pi]>>l&1, perm[pi+1]>>l&1
					if fa|fb != 0 {
						q := s*c.NumAnd + nAnd
						xorCtl(ctl, q, correctAND(gb.corr[2*q], gb.corr[2*q+1], &delta, la, lb, fa, fb, halvesCt[24*q:][:24]))
					}
					f[gate.Out] = la&lb != (la^fa)&(lb^fb)
					nAnd++
				case GateANDG:
					pv, alpha := p[gate.B], f[gate.A]
					if pv {
						ct := &andgCt[s*c.NumAndG+nAndG]
						prf.XORBlock(ct, *ct, delta)
					}
					f[gate.Out] = pv && (perm[2*nAnd+nAndG]>>l&1 == 1) != alpha
					nAndG++
				}
			}
			for i, x := range c.EvalOutputs {
				if f[x] {
					decode[(s*nEO+i)>>3] ^= 1 << ((s*nEO + i) & 7)
				}
			}
			for i, x := range c.GarblerOutputs {
				if f[x] {
					gb.outPerm[(s*nGO+i)>>3] ^= 1 << ((s*nGO + i) & 7)
				}
			}
			// A flipped keying wire swaps which label is the 1-label. A
			// keyed payload moves to the other label's pad; a select's
			// pads stay in colour order, and its permute bit, flipped,
			// says which of them now delivers which word. Then the words.
			off := s * pb
			for j := range c.Payloads {
				pl := &c.Payloads[j]
				ct := pay[off:][:pl.bytes()]
				if pl.Select {
					lam := gb.payFlip[off]
					if f[pl.W] {
						lam ^= 1
					}
					under0, under1 := selectCts(ct, pl.ctBytes(), lam)
					xorPayload(under0, pl.P0, p)
					xorPayload(under1, pl.P1, p)
				} else {
					if f[pl.W] {
						prf.XORBytes(ct, ct, gb.payFlip[off:][:len(ct)])
					}
					xorPayload(ct, pl.P1, p)
				}
				off += len(ct)
			}
		}
	})
	gb.perm, gb.corr, gb.payFlip = nil, nil, nil
}

// served takes the material left on the label batch b (GarbleOver) and
// clears it from b: the garbling to serve when it is c's shape, else nil,
// and c is garbled afresh over b's rows. This is the one place material
// is matched and counted.
func served(b *ot.DeltaBatch, c *Circuit) *garbled {
	pg, _ := b.Garbled.(*PreGarbled)
	b.Garbled = nil
	if pg == nil || pg.gb == nil || !SameShape(pg.C, c) {
		mPreCircMisses.Inc()
		return nil
	}
	gb := pg.gb
	pg.gb = nil // single-use: applyPrivate corrects it in place
	mPreCircHits.Inc()
	return gb
}

// RunOnline runs pg's circuit on the garbler's side (RunGarbler) and
// consumes pg. Its material is served when the label OT opens the batch
// it was garbled over (GarbleOver); GarbleAhead's never is. The bytes on
// the wire are always exactly those RunGarbler sends.
func (pg *PreGarbled) RunOnline(conn transport.Conn, otSend *ot.Sender, inputs, priv []bool) ([]bool, error) {
	if pg.gb == nil {
		return nil, fmt.Errorf("gc: pre-garbled circuit already consumed")
	}
	out, err := RunGarbler(conn, otSend, pg.C, inputs, priv)
	pg.gb = nil // single-use: served from its batch, or dropped
	return out, err
}
