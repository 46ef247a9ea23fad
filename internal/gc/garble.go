package gc

import (
	"fmt"
	"time"

	"secyan/internal/obs"
	"secyan/internal/prf"
)

// Garbling-kernel metrics. Counters advance once per circuit (never per
// gate, so the gate loops stay contention-free); the gates-per-second
// gauges capture the most recent kernel's throughput, the histograms
// the latency distribution. Everything is off until obs.Enable; the
// disabled fast path is guarded by BenchmarkObsDisabled.
var (
	mGatesGarbled   = obs.NewCounter("secyan_gc_gates_garbled_total", "Gates garbled (all kinds; free gates included).")
	mAndsGarbled    = obs.NewCounter("secyan_gc_and_gates_garbled_total", "AND/ANDG gates garbled (the ones that cost ciphertexts).")
	mGatesEvaled    = obs.NewCounter("secyan_gc_gates_evaluated_total", "Gates evaluated (all kinds; free gates included).")
	mAndsEvaled     = obs.NewCounter("secyan_gc_and_gates_evaluated_total", "AND/ANDG gates evaluated.")
	mCircuitsGarb   = obs.NewCounter("secyan_gc_circuits_garbled_total", "Circuits garbled.")
	mCircuitsEval   = obs.NewCounter("secyan_gc_circuits_evaluated_total", "Circuits evaluated.")
	mGarbleNs       = obs.NewHistogram("secyan_gc_garble_ns", "Latency of garbling one circuit, nanoseconds.")
	mEvalNs         = obs.NewHistogram("secyan_gc_evaluate_ns", "Latency of evaluating one circuit, nanoseconds.")
	mGarbleGateRate = obs.NewGauge("secyan_gc_garble_gates_per_second", "Throughput of the most recent garbling kernel, gates/second.")
	mEvalGateRate   = obs.NewGauge("secyan_gc_evaluate_gates_per_second", "Throughput of the most recent evaluation kernel, gates/second.")
)

// gateRate converts a gate count and elapsed time to gates/second.
func gateRate(gates int, d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64(float64(gates) / d.Seconds())
}

// KernelTotals returns the cumulative garbling and evaluation kernel
// aggregates — gates processed and nanoseconds spent — since obs was
// enabled. Benchmark drivers difference two snapshots around a measured
// run to report per-query kernel throughput.
func KernelTotals() (gatesGarbled, garbleNs, gatesEvaled, evalNs int64) {
	return mGatesGarbled.Value(), mGarbleNs.Sum(), mGatesEvaled.Value(), mEvalNs.Sum()
}

// garbled is what the garbler keeps of a garbled circuit — only what the
// message exchange reads afterwards, never a label per wire.
type garbled struct {
	delta prf.Block
	// msg is the garbler's message, built in place: tables ‖ Const0 label
	// ‖ garbler-input zero labels ‖ evaluator-output decode bits ‖
	// payload ciphertexts, all slot-major. finishGarbler turns the zero
	// labels into active ones and sends the buffer as it stands.
	msg []byte
	// evalIn holds the zero labels of the evaluator's inputs, slot-major,
	// for the input-label OTs.
	evalIn []prf.Block
	// outPerm packs the permute bits (zero-label LSBs) of the garbler's
	// outputs, slot-major; they unmask what the evaluator returns.
	outPerm []byte
	// perm is kept only for ahead-of-time garbling: for batch b and tweak
	// index t, byte b·slotBlocks+t packs over the batch's lanes the
	// permute bit of the gate input hashed under that tweak (input A at an
	// AND's first tweak and at an ANDG's only one, input B at an AND's
	// second). applyPrivate needs nothing else of the interior wires.
	perm []byte
	// payFlip is kept only for ahead-of-time garbling, laid out like the
	// message's payload region: per payload, pad(zero label) ⊕ pad(one
	// label) of its keying wire — what applyPrivate XORs in when a
	// private bit flips that wire's meaning.
	payFlip []byte
}

// msgLayout returns the byte offsets of the label region (Const0 label,
// then garbler-input labels), of the decode bits and of the payload
// ciphertexts in the garbler's message, and its total length.
func (c *Circuit) msgLayout() (labels, decode, payload, total int) {
	labels = 16 * c.TableBlocks()
	decode = labels + 16 + 16*c.Slots*len(c.GarblerInputs)
	payload = decode + (c.Slots*len(c.EvalOutputs)+7)/8
	_, perSlot := c.payloadShape()
	return labels, decode, payload, payload + c.Slots*perSlot
}

// payTweak is the pad tweak of payload j of slot s: unique per payload
// across the circuit, and disjoint from every gate tweak.
func (c *Circuit) payTweak(s, j int) uint64 {
	return prf.SitePay | uint64(s*len(c.Payloads)+j)
}

// xorPayload XORs the payload's private bits, packed little-endian, into
// dst.
func xorPayload(dst []byte, bits []PBit, priv []bool) {
	for i, pb := range bits {
		if priv[pb] {
			dst[i>>3] ^= 1 << (i & 7)
		}
	}
}

// stride is the number of lanes a label scratch holds per wire: lanes,
// or fewer when the circuit has fewer slots — a single-slot circuit's
// scratch is one label per wire.
func (c *Circuit) stride() int { return min(lanes, c.Slots) }

// labelScratch allocates one worker's label scratch, wire-major: the
// lanes of wire x are w[x·stride : x·stride+k], contiguous so that they
// hash in one prf.HashBlocks call.
func (c *Circuit) labelScratch() []prf.Block { return make([]prf.Block, c.NumWires*c.stride()) }

// lsbs packs the point-and-permute bits of up to lanes labels, lane l at
// bit l.
func lsbs(ls []prf.Block) (m byte) {
	for l := range ls {
		m |= ls[l].LSB() << l
	}
	return m
}

// Packed slot-major bit vectors use the layout of bitutil.Vector.Bytes:
// bit i at byte i/8, position i%8.
func getBit(v []byte, i int) bool { return v[i>>3]>>(i&7)&1 == 1 }

func orBit(v []byte, i int, b uint8) { v[i>>3] |= b << (i & 7) }

// garble garbles c using randomness from g. The point-and-permute
// invariant lsb(Δ)=1 makes a label's LSB a masked truth value. priv
// supplies the garbler-private bits consumed by XORG/ANDG gates,
// slot-major. keepPerm retains the per-gate permute bits applyPrivate
// needs.
//
// All randomness — Δ, the Const0 label, every input zero label — is
// drawn before the sweep, in an order that does not depend on priv or
// on the worker count. The sweep itself is the slot kernel (forBatches):
// a worker takes a batch of slots and walks the slot's gate list once
// over a scratch of NumWires×stride labels, wire-major so that the lanes
// of one wire are contiguous and each of the four half-gate hashes of an
// AND is one prf.HashBlocks call. The gate with running tweak index t in
// slot s hashes under tweak s·slotBlocks+t and owns table blocks from
// that same offset — what a serial sweep over the gadget looped Slots
// times would assign — so labels and tables are byte-identical at any
// worker count.
func garble(c *Circuit, g *prf.PRG, priv []bool, keepPerm bool) *garbled {
	sp := obs.Begin("gc", "gc.garble")
	defer sp.EndN(int64(c.NumGates()))
	if obs.Enabled() {
		startT := time.Now()
		defer func() {
			d := time.Since(startT)
			mCircuitsGarb.Inc()
			mGatesGarbled.Add(int64(c.NumGates()))
			mAndsGarbled.Add(int64(c.Slots * (c.NumAnd + c.NumAndG)))
			mGarbleNs.Observe(d.Nanoseconds())
			mGarbleGateRate.Set(gateRate(c.NumGates(), d))
		}()
	}
	labelsOff, decodeOff, payOff, total := c.msgLayout()
	nG, nE, nP := len(c.GarblerInputs), len(c.EvalInputs), c.NumPrivate
	nEO, nGO := len(c.EvalOutputs), len(c.GarblerOutputs)
	sb, stride := c.slotBlocks(), c.stride()
	_, pb := c.payloadShape()
	gb := &garbled{
		msg:     make([]byte, total),
		evalIn:  make([]prf.Block, c.Slots*nE),
		outPerm: make([]byte, (c.Slots*nGO+7)/8),
	}
	if keepPerm {
		gb.perm = make([]byte, (c.Slots+lanes-1)/lanes*sb)
		gb.payFlip = make([]byte, total-payOff)
	}
	g.Read(gb.delta[:])
	gb.delta[15] |= 1 // lsb(Δ) = 1 for point-and-permute
	g.Read(gb.msg[labelsOff:decodeOff])
	g.Read(prf.BlockBytes(gb.evalIn))

	delta := gb.delta
	tables := prf.BlocksOf(gb.msg[:labelsOff])
	labels := prf.BlocksOf(gb.msg[labelsOff:decodeOff])
	gIn := labels[1:]
	decode := gb.msg[decodeOff:payOff]
	pay := gb.msg[payOff:]
	forBatches(c, c.labelScratch, func(w []prf.Block, s0, k int) {
		lane := func(x Wire) []prf.Block { return w[int(x)*stride:][:k] }
		for l := 0; l < k; l++ {
			w[int(c.Const0)*stride+l] = labels[0]
			for i, x := range c.GarblerInputs {
				w[int(x)*stride+l] = gIn[(s0+l)*nG+i]
			}
			for i, x := range c.EvalInputs {
				w[int(x)*stride+l] = gb.evalIn[(s0+l)*nE+i]
			}
		}
		var perm []byte
		if keepPerm {
			perm = gb.perm[s0/lanes*sb:][:sb]
		}
		t, step := 0, uint64(sb)
		for _, gate := range c.Gates {
			a, out := lane(gate.A), lane(gate.Out)
			switch gate.Kind {
			case GateXOR:
				b := lane(gate.B)
				for l := range out {
					prf.XORBlock(&out[l], a[l], b[l])
				}
			case GateNOT:
				// The zero-label of the output is the one-label of the input.
				for l := range out {
					prf.XORBlock(&out[l], a[l], delta)
				}
			case GateXORG:
				// XOR with a garbler-private constant: flip the zero-label's
				// meaning when the bit is set. Free for the evaluator.
				for l := range out {
					out[l] = a[l]
					if priv[(s0+l)*nP+int(gate.B)] {
						prf.XORBlock(&out[l], a[l], delta)
					}
				}
			case GateAND:
				b := lane(gate.B)
				var a1, b1, ha0, ha1, hb0, hb1 [lanes]prf.Block
				for l := range a {
					prf.XORBlock(&a1[l], a[l], delta)
					prf.XORBlock(&b1[l], b[l], delta)
				}
				tw := uint64(s0*sb + t)
				prf.HashBlocks(ha0[:k], a, tw, step)
				prf.HashBlocks(ha1[:k], a1[:k], tw, step)
				prf.HashBlocks(hb0[:k], b, tw+1, step)
				prf.HashBlocks(hb1[:k], b1[:k], tw+1, step)
				for l := range out {
					pa, pb := a[l].LSB(), b[l].LSB()
					// Garbler half-gate.
					tg := prf.XORBlockValue(ha0[l], ha1[l])
					if pb == 1 {
						prf.XORBlock(&tg, tg, delta)
					}
					wg := ha0[l]
					if pa == 1 {
						prf.XORBlock(&wg, wg, tg)
					}
					// Evaluator half-gate.
					te := prf.XORBlockValue(prf.XORBlockValue(hb0[l], hb1[l]), a[l])
					we := hb0[l]
					if pb == 1 {
						prf.XORBlock(&we, we, prf.XORBlockValue(te, a[l]))
					}
					prf.XORBlock(&out[l], wg, we)
					ti := (s0+l)*sb + t
					tables[ti], tables[ti+1] = tg, te
				}
				if keepPerm {
					perm[t], perm[t+1] = lsbs(a), lsbs(b)
				}
				t += 2
			case GateANDG:
				// AND with a garbler-private constant: a single garbler
				// half-gate (one ciphertext).
				var a1, ha0, ha1 [lanes]prf.Block
				for l := range a {
					prf.XORBlock(&a1[l], a[l], delta)
				}
				tw := uint64(s0*sb + t)
				prf.HashBlocks(ha0[:k], a, tw, step)
				prf.HashBlocks(ha1[:k], a1[:k], tw, step)
				for l := range out {
					tg := prf.XORBlockValue(ha0[l], ha1[l])
					if priv[(s0+l)*nP+int(gate.B)] {
						prf.XORBlock(&tg, tg, delta)
					}
					out[l] = ha0[l]
					if a[l].LSB() == 1 {
						prf.XORBlock(&out[l], ha0[l], tg)
					}
					tables[(s0+l)*sb+t] = tg
				}
				if keepPerm {
					perm[t] = lsbs(a)
				}
				t++
			}
		}
		// A batch of lanes slots owns whole bytes of both packed vectors.
		for l := 0; l < k; l++ {
			for i, x := range c.EvalOutputs {
				orBit(decode, (s0+l)*nEO+i, w[int(x)*stride+l].LSB())
			}
			for i, x := range c.GarblerOutputs {
				orBit(gb.outPerm, (s0+l)*nGO+i, w[int(x)*stride+l].LSB())
			}
			// Keyed payloads: the pad of the keying wire's 1-label, with
			// the payload XORed in. Ahead of time the payload bits are
			// zero, and the other label's pad is kept for the correction.
			s, off := s0+l, (s0+l)*pb
			for j, p := range c.Payloads {
				ct := pay[off:][:(len(p.Bits)+7)/8]
				zero := w[int(p.W)*stride+l]
				prf.HashToWidthAES(ct, prf.XORBlockValue(zero, delta), c.payTweak(s, j))
				if keepPerm {
					fl := gb.payFlip[off:][:len(ct)]
					prf.HashToWidthAES(fl, zero, c.payTweak(s, j))
					prf.XORBytes(fl, fl, ct)
				}
				xorPayload(ct, p.Bits, priv[s*nP:])
				off += len(ct)
			}
		}
	})
	return gb
}

// evaluate runs the evaluator's side of c over the garbler's message —
// read in place, tables included — and the active labels of its own
// inputs, slot-major. It returns the evaluator's output bits (each
// payload's bits right after its keying wire's) and the packed masked bits
// (active-label LSBs) of the garbler's outputs. It is the same slot
// kernel as garble, with the same determinism guarantee, and it checks
// every length before the first read: msg comes from the peer.
func evaluate(c *Circuit, msg []byte, evalIn [][]byte) (out []bool, masked []byte, err error) {
	labelsOff, decodeOff, payOff, total := c.msgLayout()
	if len(msg) != total {
		return nil, nil, fmt.Errorf("gc: garbled message has %d bytes, want %d", len(msg), total)
	}
	nG, nE := len(c.GarblerInputs), len(c.EvalInputs)
	nEO, nGO, nOut := len(c.EvalOutputs), len(c.GarblerOutputs), c.evalOutBits()
	_, pb := c.payloadShape()
	if len(evalIn) != c.Slots*nE {
		return nil, nil, fmt.Errorf("gc: got %d evaluator input labels, want %d", len(evalIn), c.Slots*nE)
	}
	for i := range evalIn {
		if len(evalIn[i]) != 16 {
			return nil, nil, fmt.Errorf("gc: evaluator input label %d has %d bytes, want 16", i, len(evalIn[i]))
		}
	}
	sp := obs.Begin("gc", "gc.evaluate")
	defer sp.EndN(int64(c.NumGates()))
	if obs.Enabled() {
		startT := time.Now()
		defer func() {
			d := time.Since(startT)
			mCircuitsEval.Inc()
			mGatesEvaled.Add(int64(c.NumGates()))
			mAndsEvaled.Add(int64(c.Slots * (c.NumAnd + c.NumAndG)))
			mEvalNs.Observe(d.Nanoseconds())
			mEvalGateRate.Set(gateRate(c.NumGates(), d))
		}()
	}
	sb, stride := c.slotBlocks(), c.stride()
	tables := prf.BlocksOf(msg[:labelsOff])
	labels := prf.BlocksOf(msg[labelsOff:decodeOff])
	gIn := labels[1:]
	decode := msg[decodeOff:payOff]
	pay := msg[payOff:]
	out = make([]bool, c.Slots*nOut)
	masked = make([]byte, (c.Slots*nGO+7)/8)
	forBatches(c, c.labelScratch, func(w []prf.Block, s0, k int) {
		lane := func(x Wire) []prf.Block { return w[int(x)*stride:][:k] }
		for l := 0; l < k; l++ {
			w[int(c.Const0)*stride+l] = labels[0]
			for i, x := range c.GarblerInputs {
				w[int(x)*stride+l] = gIn[(s0+l)*nG+i]
			}
			for i, x := range c.EvalInputs {
				copy(w[int(x)*stride+l][:], evalIn[(s0+l)*nE+i])
			}
		}
		t, step := 0, uint64(sb)
		for _, gate := range c.Gates {
			a, o := lane(gate.A), lane(gate.Out)
			switch gate.Kind {
			case GateXOR:
				b := lane(gate.B)
				for l := range o {
					prf.XORBlock(&o[l], a[l], b[l])
				}
			case GateNOT, GateXORG:
				copy(o, a)
			case GateAND:
				b := lane(gate.B)
				var hg, he [lanes]prf.Block
				tw := uint64(s0*sb + t)
				prf.HashBlocks(hg[:k], a, tw, step)
				prf.HashBlocks(he[:k], b, tw+1, step)
				for l := range o {
					ti := (s0+l)*sb + t
					wg, we := hg[l], he[l]
					if a[l].LSB() == 1 {
						prf.XORBlock(&wg, wg, tables[ti])
					}
					if b[l].LSB() == 1 {
						prf.XORBlock(&we, we, prf.XORBlockValue(tables[ti+1], a[l]))
					}
					prf.XORBlock(&o[l], wg, we)
				}
				t += 2
			case GateANDG:
				var h [lanes]prf.Block
				prf.HashBlocks(h[:k], a, uint64(s0*sb+t), step)
				for l := range o {
					o[l] = h[l]
					if a[l].LSB() == 1 {
						prf.XORBlock(&o[l], h[l], tables[(s0+l)*sb+t])
					}
				}
				t++
			}
		}
		var pad []byte
		for l := 0; l < k; l++ {
			s := s0 + l
			o, j, off := s*nOut, 0, s*pb
			for i, x := range c.EvalOutputs {
				on := (w[int(x)*stride+l].LSB() == 1) != getBit(decode, s*nEO+i)
				out[o] = on
				o++
				if j == len(c.Payloads) || c.Payloads[j].Out != i {
					continue
				}
				// A payload whose keying wire came out 1 is under the pad
				// of the label held; one keyed to a 0 stays zeros.
				p := c.Payloads[j]
				ct := pay[off:][:(len(p.Bits)+7)/8]
				if on {
					pad = append(pad[:0], ct...)
					prf.HashToWidthAES(pad, w[int(x)*stride+l], c.payTweak(s, j))
					prf.XORBytes(pad, pad, ct)
					for b := range p.Bits {
						out[o+b] = pad[b>>3]>>(b&7)&1 == 1
					}
				}
				o, j, off = o+len(p.Bits), j+1, off+len(ct)
			}
			for i, x := range c.GarblerOutputs {
				orBit(masked, s*nGO+i, w[int(x)*stride+l].LSB())
			}
		}
	})
	return out, masked, nil
}
