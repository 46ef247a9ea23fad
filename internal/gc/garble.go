package gc

import (
	"fmt"
	"sync"

	"secyan/internal/obs"
	"secyan/internal/parallel"
	"secyan/internal/prf"
)

// The garbling and evaluation kernels, measured once per circuit in
// gates (never per gate, so the gate loops stay contention-free). The
// disabled fast path is guarded by BenchmarkObsDisabled.
var (
	kGarble   = obs.NewKernel("gc.garble")
	kEvaluate = obs.NewKernel("gc.evaluate")
)

// circuitKey is what a circuit is garbled under: the free-XOR offset Δ — the
// garbler's OT-extension Δ (ot.Sender.Delta), so that the label batch
// needs no correction — and its hash tweaks, which the evaluator keys
// its hashes with too: the high word, the stream word of the label
// batch's extension (ot.Sender.Word), and the base of the low words
// (tweakBase).
type circuitKey struct {
	delta prf.Block
	word  prf.Word
	base  uint64
}

// tweakBits is the width of a circuit's own hash tweaks. A circuit's gate
// tweaks (slot·slotTweaks + t) and payload tweaks (slot·payloads + j) stay
// below 2^tweakBits — 2^36 gate tweaks would be a terabyte of tables —
// and its label batch's serial k sits above them: under one Δ, circuit k
// owns gate tweaks [k·2^36, (k+1)·2^36) of prf.SiteGC and the same range
// ORed into prf.SitePay, so no two circuits a party garbles on a stream
// hash under the same tweak, and the stream word keeps two streams that
// share Δ apart. 2^25 serials fit below bit 61, where SitePay begins.
const tweakBits = 36

// tweakBase returns the tweak base of c garbled over the label batch with
// the given serial.
func (c *Circuit) tweakBase(serial uint64) (uint64, error) {
	if serial >= 1<<(61-tweakBits) {
		return 0, fmt.Errorf("gc: label batch serial %d: the session has garbled its 2^%d circuits", serial, 61-tweakBits)
	}
	if uint64(c.Slots*c.slotTweaks()) >= 1<<tweakBits || uint64(c.Slots*len(c.Payloads)) >= 1<<tweakBits {
		return 0, fmt.Errorf("gc: circuit has more than 2^%d hash tweaks", tweakBits)
	}
	return serial << tweakBits, nil
}

// garbled is what the garbler keeps of a garbled circuit — only what the
// message exchange reads afterwards, never a label per wire.
type garbled struct {
	delta prf.Block
	// msg is the garbler's message, built in place: tables ‖ Const0 label
	// ‖ garbler-input zero labels ‖ evaluator-output decode bits ‖
	// payload ciphertexts, all slot-major. runGarbler turns the zero
	// labels into active ones and sends the buffer.
	msg []byte
	// evalIn holds the zero labels of the evaluator's inputs, slot-major:
	// the label batch's rows, or drawn from the PRG when there is none.
	evalIn []prf.Block
	// outPerm packs the permute bits (zero-label LSBs) of the garbler's
	// outputs, slot-major; they unmask what the evaluator returns.
	outPerm []byte
	// perm and corr are kept only for ahead-of-time garbling. For batch b,
	// byte b·slotPerms+k of perm packs over the batch's lanes a permute
	// bit (zero-label colour): an AND's inputs A and B at k and k+1, an
	// ANDG's input at k, k running over the slot's gates. corr holds, per
	// AND of each slot, w of its colour-0 input labels (colourW).
	// applyPrivate needs nothing else of the interior wires.
	perm []byte
	corr []uint64
	// payFlip is kept only for ahead-of-time garbling, laid out like the
	// message's payload region: per keyed payload, pad(zero label) ⊕
	// pad(one label) of its keying wire — what applyPrivate XORs in when a
	// private bit flips that wire's meaning; per select, the keying wire's
	// permute bit in the region's first byte, which fixes what each of its
	// colour-ordered ciphertexts carries.
	payFlip []byte
}

// msgLayout returns the byte offsets of the label region (Const0 label,
// then garbler-input labels), of the decode bits and of the payload
// ciphertexts in the garbler's message, and its total length.
func (c *Circuit) msgLayout() (labels, decode, payload, total int) {
	_, _, labels = tableLayout(c.Slots*c.NumAnd, c.Slots*c.NumAndG)
	decode = labels + 16 + 16*c.Slots*len(c.GarblerInputs)
	payload = decode + (c.Slots*len(c.EvalOutputs)+7)/8
	_, perSlot := c.payloadShape()
	return labels, decode, payload, payload + c.Slots*perSlot
}

// payTweak is the pad tweak of payload j of slot s under tweak base
// base: unique per payload across the circuit, and disjoint from every
// gate tweak. A select's two pads share it, as the garbler's two hashes
// of an AND input's labels share theirs.
func (c *Circuit) payTweak(base uint64, s, j int) uint64 {
	return prf.SitePay | base | uint64(s*len(c.Payloads)+j)
}

// selectCts splits a select's ciphertexts, two of n bytes in colour
// order, into the one under the keying wire's 0-label and the one under
// its 1-label, given the 0-label's permute bit lam.
func selectCts(ct []byte, n int, lam uint8) (under0, under1 []byte) {
	if lam == 1 {
		return ct[n:], ct[:n]
	}
	return ct[:n], ct[n:]
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

// labelScratch returns one worker's label scratch, wire-major: the lanes
// of wire x are w[x·stride : x·stride+k], contiguous so that they copy
// and hash as one run. It reuses a scratch an earlier circuit gave
// back (releaseScratch) when one is large enough: a query garbles and
// evaluates its circuits one after another.
func (c *Circuit) labelScratch() []prf.Block {
	n := c.NumWires * c.stride()
	scratchCache.Lock()
	free := scratchCache.free
	for i, w := range free {
		if cap(w) >= n {
			free[i], free[len(free)-1] = free[len(free)-1], nil
			scratchCache.free = free[:len(free)-1]
			scratchCache.Unlock()
			return w[:n]
		}
	}
	scratchCache.Unlock()
	return make([]prf.Block, n)
}

// scratchCache holds label scratches between circuits: at most one per
// worker, and none larger than maxCachedScratch labels — a slot-built
// circuit's scratch is a few dozen KiB at any size — so what it keeps
// alive stays small and does not depend on the garbage collector.
var scratchCache struct {
	sync.Mutex
	free [][]prf.Block
}

const maxCachedScratch = 256 << 10 / 16

// releaseScratch gives w back to scratchCache, in place of a smaller one
// when the cache is full.
func releaseScratch(w []prf.Block) {
	if cap(w) > maxCachedScratch {
		return
	}
	scratchCache.Lock()
	defer scratchCache.Unlock()
	free := scratchCache.free
	if len(free) < parallel.Workers() {
		scratchCache.free = append(free, w)
		return
	}
	for i := range free {
		if cap(free[i]) < cap(w) {
			free[i] = w
			return
		}
	}
}

// lsbs packs the point-and-permute bits of up to lanes labels, lane l at
// bit l.
func lsbs(ls []prf.Block) (m byte) {
	for l := range ls {
		m |= ls[l].LSB() << l
	}
	return m
}

// Packed slot-major bit vectors are little-endian within each byte, as
// every packed bit string on the wire (the OT choice and correction
// bits): bit i at byte i/8, position i%8.
func getBit(v []byte, i int) bool { return v[i>>3]>>(i&7)&1 == 1 }

func orBit(v []byte, i int, b uint8) { v[i>>3] |= b << (i & 7) }

// slotPerms is the number of permute bits one slot keeps for
// applyPrivate: two per AND, one per ANDG.
func (c *Circuit) slotPerms() int { return 2*c.NumAnd + c.NumAndG }

// garble garbles c under ck using randomness from g. The point-and-permute
// invariant lsb(Δ)=1 makes a label's LSB a masked truth value. priv
// supplies the garbler-private bits consumed by XORG/ANDG gates,
// slot-major. keepPerm retains the per-gate permute bits and colour-0
// label halves applyPrivate needs. evalIn, when non-nil, supplies the
// evaluator-input zero labels (the label batch's rows); otherwise they
// are drawn from g.
//
// All randomness — the Const0 label, every garbler-input zero label — is
// drawn before the sweep, in an order that does not depend on priv or
// on the worker count; an AND's control randomness comes from its own
// hashes (andgate.go). The sweep itself is the slot kernel (forBatches):
// a worker takes a batch of slots and walks the slot's gate list once
// over a scratch of NumWires×stride labels, wire-major so that the lanes
// of one wire are contiguous, and the six hashes of an AND over all the
// batch's lanes are one prf.HashTweaks call — one kernel pass even for
// a batch of one slot. The gate with running tweak index t in slot s
// hashes under tweak ck.base + s·slotTweaks+t, and the q-th AND (ANDG) of
// slot s owns the table entries of AND (ANDG) s·NumAnd+q (s·NumAndG+q) —
// what a serial sweep over the gadget looped Slots times would assign —
// so labels and tables are byte-identical at any worker count.
func garble(c *Circuit, ck circuitKey, g *prf.PRG, priv []bool, keepPerm bool, evalIn []prf.Block) *garbled {
	sp := kGarble.Begin()
	defer sp.EndN(int64(c.NumGates()))
	labelsOff, decodeOff, payOff, total := c.msgLayout()
	nG, nE, nP := len(c.GarblerInputs), len(c.EvalInputs), c.NumPrivate
	nEO, nGO := len(c.EvalOutputs), len(c.GarblerOutputs)
	st, sperm, stride := c.slotTweaks(), c.slotPerms(), c.stride()
	_, pb := c.payloadShape()
	gb := &garbled{
		delta:   ck.delta,
		msg:     make([]byte, total),
		evalIn:  evalIn,
		outPerm: make([]byte, (c.Slots*nGO+7)/8),
	}
	if keepPerm {
		gb.perm = make([]byte, (c.Slots+lanes-1)/lanes*sperm)
		gb.corr = make([]uint64, 2*c.Slots*c.NumAnd)
		gb.payFlip = make([]byte, total-payOff)
	}
	g.Read(gb.msg[labelsOff:decodeOff])
	if evalIn == nil {
		gb.evalIn = make([]prf.Block, c.Slots*nE)
		g.Read(prf.BlockBytes(gb.evalIn))
	}

	delta := gb.delta
	ctlOff, andgOff, _ := tableLayout(c.Slots*c.NumAnd, c.Slots*c.NumAndG)
	halvesCt, ctl := gb.msg[:ctlOff], gb.msg[ctlOff:andgOff]
	andgCt := prf.BlocksOf(gb.msg[andgOff:labelsOff])
	labels := prf.BlocksOf(gb.msg[labelsOff:decodeOff])
	gIn := labels[1:]
	decode := gb.msg[decodeOff:payOff]
	pay := gb.msg[payOff:]
	forBatches(c, c.labelScratch, releaseScratch, func(w []prf.Block, s0, k int) {
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
			perm = gb.perm[s0/lanes*sperm:][:sperm]
		}
		// An AND's colour-ordered inputs and their hashes, input m of
		// lane l at m·k+l, so that the six hashes of all k lanes are one
		// prf.HashTweaks call; the arrays live across gates, as each AND
		// writes what it reads. tws[m·k+l] is that hash's tweak less the
		// gate's base tweak: m/2 + l·slotTweaks.
		var in, hs [6 * lanes]prf.Block
		var off, tws [6 * lanes]uint64
		for m := 0; m < 6; m++ {
			for l := 0; l < k; l++ {
				off[m*k+l] = uint64(m/2 + l*st)
			}
		}
		// The running counts of ANDs and ANDGs give a gate's tweak index
		// (3 per AND, 1 per ANDG), table entry and permute-bit index.
		nAnd, nAndG, step := 0, 0, uint64(st)
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
				// Colour-ordered labels of A, B and A⊕B, hashed under the
				// gate's three tweaks.
				b := lane(gate.B)
				a0, a1, b0, b1, x0, x1 := in[:k], in[k:2*k], in[2*k:3*k], in[3*k:4*k], in[4*k:5*k], in[5*k:6*k]
				for l := range out {
					a0[l], b0[l] = a[l], b[l]
					if a[l].LSB() == 1 {
						prf.XORBlock(&a0[l], a[l], delta)
					}
					if b[l].LSB() == 1 {
						prf.XORBlock(&b0[l], b[l], delta)
					}
					prf.XORBlock(&x0[l], a0[l], b0[l])
					prf.XORBlock(&a1[l], a0[l], delta)
					prf.XORBlock(&b1[l], b0[l], delta)
					prf.XORBlock(&x1[l], x0[l], delta)
				}
				tw := ck.base + uint64(s0*st+3*nAnd+nAndG)
				for i := range 6 * k {
					tws[i] = tw + off[i]
				}
				ck.word.HashTweaks(hs[:6*k], in[:6*k], tws[:6*k])
				for l := range out {
					h := andHashes{hs[l], hs[k+l], hs[2*k+l], hs[3*k+l], hs[4*k+l], hs[5*k+l]}
					q := (s0+l)*c.NumAnd + nAnd
					var bits uint8
					out[l], bits = garbleAND(&a0[l], &b0[l], &delta, a[l].LSB(), b[l].LSB(), &h, halvesCt[24*q:][:24])
					xorCtl(ctl, q, bits)
					if keepPerm {
						gb.corr[2*q], gb.corr[2*q+1] = colourW(&a0[l], &b0[l])
					}
				}
				if keepPerm {
					pi := 2*nAnd + nAndG
					perm[pi], perm[pi+1] = lsbs(a), lsbs(b)
				}
				nAnd++
			case GateANDG:
				// AND with a garbler-private constant: a single garbler
				// half gate (one ciphertext). Both labels of the input
				// hash in one call, under the gate's one tweak per lane.
				a01, ha0, ha1 := in[:2*k], hs[:k], hs[k:2*k]
				copy(a01, a)
				tw := ck.base + uint64(s0*st+3*nAnd+nAndG)
				for l := range a {
					prf.XORBlock(&a01[k+l], a[l], delta)
					tws[l] = tw + uint64(l)*step
					tws[k+l] = tws[l]
				}
				ck.word.HashTweaks(hs[:2*k], a01, tws[:2*k])
				for l := range out {
					tg := prf.XORBlockValue(ha0[l], ha1[l])
					if priv[(s0+l)*nP+int(gate.B)] {
						prf.XORBlock(&tg, tg, delta)
					}
					out[l] = ha0[l]
					if a[l].LSB() == 1 {
						prf.XORBlock(&out[l], ha0[l], tg)
					}
					andgCt[(s0+l)*c.NumAndG+nAndG] = tg
				}
				if keepPerm {
					perm[2*nAnd+nAndG] = lsbs(a)
				}
				nAndG++
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
			// Payloads: each word XORed into the pad of the label that
			// delivers it. Ahead of time the payload bits are zero, and
			// applyPrivate gets what it needs to move them: a keyed
			// payload's other pad, a select's permute bit.
			s, off := s0+l, (s0+l)*pb
			for j := range c.Payloads {
				p := &c.Payloads[j]
				n, tw := p.ctBytes(), c.payTweak(ck.base, s, j)
				ct := pay[off:][:p.bytes()]
				zero := w[int(p.W)*stride+l]
				one := prf.XORBlockValue(zero, delta)
				if p.Select {
					under0, under1 := selectCts(ct, n, zero.LSB())
					ck.word.HashToWidthAES(under0, zero, tw)
					ck.word.HashToWidthAES(under1, one, tw)
					xorPayload(under0, p.P0, priv[s*nP:])
					xorPayload(under1, p.P1, priv[s*nP:])
					if keepPerm {
						gb.payFlip[off] = zero.LSB()
					}
				} else {
					ck.word.HashToWidthAES(ct, one, tw)
					if keepPerm {
						fl := gb.payFlip[off:][:n]
						ck.word.HashToWidthAES(fl, zero, tw)
						prf.XORBytes(fl, fl, ct)
					}
					xorPayload(ct, p.P1, priv[s*nP:])
				}
				off += len(ct)
			}
		}
	})
	return gb
}

// evaluate runs the evaluator's side of c over the garbler's message —
// read in place, tables included — and the active labels of its own
// inputs, flat and slot-major, hashing under the garbler's tweaks: word
// and base. It returns the evaluator's output bits (the
// payloads' where Circuit.Payloads places them) and the packed masked bits
// (active-label LSBs) of the garbler's outputs. It is the same slot
// kernel as garble, with the same determinism guarantee, and it checks
// every length before the first read: msg comes from the peer.
func evaluate(c *Circuit, word prf.Word, base uint64, msg []byte, evalIn []byte) (out []bool, masked []byte, err error) {
	labelsOff, decodeOff, payOff, total := c.msgLayout()
	if len(msg) != total {
		return nil, nil, fmt.Errorf("gc: garbled message has %d bytes, want %d", len(msg), total)
	}
	nG, nE := len(c.GarblerInputs), len(c.EvalInputs)
	nEO, nGO, nOut := len(c.EvalOutputs), len(c.GarblerOutputs), c.evalOutBits()
	_, pb := c.payloadShape()
	if len(evalIn) != 16*c.Slots*nE {
		return nil, nil, fmt.Errorf("gc: got %d bytes of evaluator input labels, want %d", len(evalIn), 16*c.Slots*nE)
	}
	eIn := prf.BlocksOf(evalIn)
	sp := kEvaluate.Begin()
	defer sp.EndN(int64(c.NumGates()))
	st, stride := c.slotTweaks(), c.stride()
	ctlOff, andgOff, _ := tableLayout(c.Slots*c.NumAnd, c.Slots*c.NumAndG)
	halvesCt, ctl := msg[:ctlOff], msg[ctlOff:andgOff]
	andgCt := prf.BlocksOf(msg[andgOff:labelsOff])
	labels := prf.BlocksOf(msg[labelsOff:decodeOff])
	gIn := labels[1:]
	decode := msg[decodeOff:payOff]
	pay := msg[payOff:]
	out = make([]bool, c.Slots*nOut)
	masked = make([]byte, (c.Slots*nGO+7)/8)
	forBatches(c, c.labelScratch, releaseScratch, func(w []prf.Block, s0, k int) {
		lane := func(x Wire) []prf.Block { return w[int(x)*stride:][:k] }
		for l := 0; l < k; l++ {
			w[int(c.Const0)*stride+l] = labels[0]
			for i, x := range c.GarblerInputs {
				w[int(x)*stride+l] = gIn[(s0+l)*nG+i]
			}
			for i, x := range c.EvalInputs {
				w[int(x)*stride+l] = eIn[(s0+l)*nE+i]
			}
		}
		// An AND's three hash inputs and their hashes — A, B and A⊕B of
		// lane l at l, k+l and 2k+l — so that the gate's hashes over all k
		// lanes are one prf.HashTweaks call; the arrays live across gates,
		// as each AND writes what it reads. tws[m·k+l] is that hash's
		// tweak less the gate's base tweak: m + l·slotTweaks.
		var in, hs [3 * lanes]prf.Block
		var off, tws [3 * lanes]uint64
		for m := 0; m < 3; m++ {
			for l := 0; l < k; l++ {
				off[m*k+l] = uint64(m + l*st)
			}
		}
		nAnd, nAndG, step := 0, 0, uint64(st)
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
				x := in[2*k : 3*k]
				copy(in[:k], a)
				copy(in[k:2*k], b)
				for l := range o {
					prf.XORBlock(&x[l], a[l], b[l])
				}
				tw := base + uint64(s0*st+3*nAnd+nAndG)
				for i := range 3 * k {
					tws[i] = tw + off[i]
				}
				word.HashTweaks(hs[:3*k], in[:3*k], tws[:3*k])
				for l := range o {
					q := (s0+l)*c.NumAnd + nAnd
					o[l] = evalAND(&a[l], &b[l], &hs[l], &hs[k+l], &hs[2*k+l], halvesCt[24*q:][:24], ctlAt(ctl, q))
				}
				nAnd++
			case GateANDG:
				var h [lanes]prf.Block
				word.HashBlocks(h[:k], a, base+uint64(s0*st+3*nAnd+nAndG), step)
				for l := range o {
					o[l] = h[l]
					if a[l].LSB() == 1 {
						prf.XORBlock(&o[l], h[l], andgCt[(s0+l)*c.NumAndG+nAndG])
					}
				}
				nAndG++
			}
		}
		var pad []byte
		for l := 0; l < k; l++ {
			s := s0 + l
			o, i, off := s*nOut, 0, s*pb
			for j := 0; j <= len(c.Payloads); j++ {
				end := nEO
				if j < len(c.Payloads) {
					end = c.Payloads[j].Out
				}
				for ; i < end; i++ {
					out[o] = (w[int(c.EvalOutputs[i])*stride+l].LSB() == 1) != getBit(decode, s*nEO+i)
					o++
				}
				if j == len(c.Payloads) {
					break
				}
				// A select's ciphertext is the one the held label's colour
				// points at; a keyed payload's is under the 1-label, so it
				// opens when its keying wire — the output just decoded —
				// came out 1, and stays zeros otherwise.
				p := &c.Payloads[j]
				n, label := p.ctBytes(), w[int(p.W)*stride+l]
				var ct []byte
				switch {
				case p.Select:
					ct = pay[off+int(label.LSB())*n:][:n]
				case out[o-1]:
					ct = pay[off:][:n]
				}
				if ct != nil {
					pad = append(pad[:0], ct...)
					word.HashToWidthAES(pad, label, c.payTweak(base, s, j))
					prf.XORBytes(pad, pad, ct)
					for b := range p.P1 {
						out[o+b] = pad[b>>3]>>(b&7)&1 == 1
					}
				}
				o, off = o+len(p.P1), off+p.bytes()
			}
			for i, x := range c.GarblerOutputs {
				orBit(masked, s*nGO+i, w[int(x)*stride+l].LSB())
			}
		}
	})
	return out, masked, nil
}
