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
// expensive 4-hashes-per-AND garbling kernel moves entirely off the
// online critical path.
//
// Why this is possible: free-XOR garbling represents the one-label of a
// wire as zeroLabel ⊕ Δ. Flipping a private bit only swaps which of the
// two labels is "zero" on the wires it feeds (a flip that propagates
// through the circuit as f_out = f_a ⊕ f_b for XOR and so on), and the
// half-gates table entries change by exactly f·Δ. Both effects are
// computable from the offline labels alone, and — because garble() draws
// its randomness in a private-independent order — the corrected material
// is byte-identical to what a direct garble of the same seed and true
// private bits would have produced. The wire format therefore does not
// change at all; precompute_test.go pins this equality.

var mCircuitsCorrected = obs.NewCounter("secyan_gc_circuits_corrected_total", "Pre-garbled circuits specialized to their private bits online.")

// PreGarbled is a circuit garbled ahead of time, waiting for its online
// inputs. It is single-use: RunOnline consumes the garbled material.
type PreGarbled struct {
	C  *Circuit
	gb *garbled
}

// GarbleAhead garbles c before its inputs or private bits are known.
// Pure computation — nothing touches the network until RunOnline. Besides
// the message-shaped material every garbling keeps, it retains one
// permute bit per table block (see garbled.perm): all applyPrivate needs
// of the interior wires.
func GarbleAhead(c *Circuit) *PreGarbled {
	zero := make([]bool, c.Slots*c.NumPrivate)
	return &PreGarbled{C: c, gb: garble(c, prf.NewPRG(prf.RandomSeed()), zero, true)}
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
// private bits, in place: it XORs f·Δ into the affected table entries,
// flips the decode and output permute bits of the output wires whose
// label meaning changed and XORs the payloads — re-padded where their
// keying wire flipped — into their ciphertexts, after which gb is what a
// direct garble with the same randomness would have produced. The slot
// kernel again, one slot at a time over a scratch of per-wire flip bits
// f (input wires are never written, so they stay unflipped across
// slots); each gate sees its input flips resolved because the gate list
// is topologically ordered.
func applyPrivate(c *Circuit, gb *garbled, priv []bool) {
	sp := obs.Begin("gc", "gc.correct")
	defer sp.EndN(int64(c.NumGates()))
	mCircuitsCorrected.Inc()
	labelsOff, decodeOff, payOff, _ := c.msgLayout()
	tables := prf.BlocksOf(gb.msg[:labelsOff])
	decode := gb.msg[decodeOff:payOff]
	pay := gb.msg[payOff:]
	delta := gb.delta
	sb, nP := c.slotBlocks(), c.NumPrivate
	nEO, nGO := len(c.EvalOutputs), len(c.GarblerOutputs)
	_, pb := c.payloadShape()
	forBatches(c, func() []bool { return make([]bool, c.NumWires) }, func(f []bool, s0, k int) {
		perm := gb.perm[s0/lanes*sb:][:sb]
		for l := 0; l < k; l++ {
			s := s0 + l
			p := priv[s*nP:][:nP]
			tbl := tables[s*sb:][:sb]
			t := 0
			for _, gate := range c.Gates {
				switch gate.Kind {
				case GateXOR:
					f[gate.Out] = f[gate.A] != f[gate.B]
				case GateNOT:
					f[gate.Out] = f[gate.A]
				case GateXORG:
					f[gate.Out] = f[gate.A] != p[gate.B]
				case GateAND:
					alpha, beta := f[gate.A], f[gate.B]
					pa, pb := perm[t]>>l&1 == 1, perm[t+1]>>l&1 == 1
					if beta {
						prf.XORBlock(&tbl[t], tbl[t], delta)
					}
					if alpha {
						prf.XORBlock(&tbl[t+1], tbl[t+1], delta)
					}
					f[gate.Out] = (pa && beta) != (alpha && (pb != beta))
					t += 2
				case GateANDG:
					pv, alpha := p[gate.B], f[gate.A]
					if pv {
						prf.XORBlock(&tbl[t], tbl[t], delta)
					}
					f[gate.Out] = pv && (perm[t]>>l&1 == 1) != alpha
					t++
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
			// A flipped keying wire swaps which label is the 1-label,
			// hence which pad the payload sits under; then the payload.
			off := s * pb
			for _, pl := range c.Payloads {
				ct := pay[off:][:(len(pl.Bits)+7)/8]
				if f[pl.W] {
					prf.XORBytes(ct, ct, gb.payFlip[off:][:len(ct)])
				}
				xorPayload(ct, pl.Bits, p)
				off += len(ct)
			}
		}
	})
	gb.perm, gb.payFlip = nil, nil
}

// RunOnline runs the thin online step of a pre-garbled circuit: apply the
// private-bit corrections, then the standard garbler message exchange
// (tables ‖ labels ‖ decode bits, input-label OTs, masked outputs). The
// bytes on the wire are exactly those RunGarbler would send.
func (pg *PreGarbled) RunOnline(conn transport.Conn, otSend *ot.Sender, inputs, priv []bool) ([]bool, error) {
	c := pg.C
	if pg.gb == nil {
		return nil, fmt.Errorf("gc: pre-garbled circuit already consumed")
	}
	if err := c.checkGarblerBits(inputs, priv); err != nil {
		return nil, err
	}
	gb := pg.gb
	pg.gb = nil // single-use: applyPrivate mutates the material
	applyPrivate(c, gb, priv)
	return finishGarbler(conn, otSend, c, gb, inputs)
}
