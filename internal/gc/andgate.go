package gc

import (
	"encoding/binary"

	"secyan/internal/prf"
)

// Three-halves garbling of an AND gate (Rosulek–Roy, "Three Halves Make
// a Whole?", CRYPTO 2021), in the linear form the slot kernel runs.
//
// Labels and Δ split into 64-bit halves, left (bytes 0–7) and right
// (bytes 8–15, which hold the colour bit). Write A and B for the
// colour-0 labels of the gate's inputs — A = zero label ⊕ λ_a·Δ, with λ_a
// the zero label's colour — so that the evaluator, holding colours
// (i, j), holds A ⊕ iΔ and B ⊕ jΔ. She hashes her two labels and their
// XOR under the gate's three tweaks, and takes from each hash h its left
// half ĥ and one mask bit (byte 8, bit 0). With the gate's three
// half-ciphertexts G0, G1, G2 and its 5 control bits she computes
//
//	ρ   = (m_A ⊕ m_X ⊕ i·g0 ⊕ (i⊕j)·g2 ⊕ cL,  m_B ⊕ m_X ⊕ j·g1 ⊕ (i⊕j)·g2 ⊕ cR)
//	C_L = ĥ_A ⊕ ĥ_X ⊕ i·G0 ⊕ (i⊕j)·G2 ⊕ [ρ·w]_L ⊕ i·B^L
//	C_R = ĥ_B ⊕ ĥ_X ⊕ j·G1 ⊕ (i⊕j)·G2 ⊕ [ρ·w]_R ⊕ j·A^R
//
// over her labels' halves, where w = (w1, w2) = (A^R ⊕ B^L, A^L ⊕ B^L ⊕ B^R)
// and ρ·w is the product in GF(4) (mulRho). The hashes alone can give
// her only an output that is affine in (i, j); the AND's ij term comes
// from ρ·w, whose Δ part the garbler steers row by row through the
// control values ρ. Those depend on λ_a and λ_b, so they are random per
// gate and sent masked: the garbler draws
//
//	ρ_ij = (r1 ⊕ λ_a(i⊕j) ⊕ λ_b·j,  r2 ⊕ λ_a·i ⊕ λ_b(i⊕j))
//
// with (r1, r2) uniform, so each row's ρ_ij is uniform whatever λ_a, λ_b
// are. The four rows' values span a subspace of the same five-dimensional
// space the hashes span, so 5 bits carry them with the masks of the
// hashes a row computes, as 3 halves carry the labels; the other three
// rows stay hidden behind hashes the evaluator cannot compute. The
// randomness (r1, r2) is two more hash bits (byte 8, bit 1) of the
// garbler's hashes of both labels of A and of B: one of each pair is
// always a hash she cannot compute, and the bits are used nowhere else.
//
// The garbler solves the gate from rows 00, 10 and 01 of the evaluator's
// equations: C (the output zero label) is row 00's right-hand side, and
// the ciphertexts follow (andLinear); rows 01-left and 11 then hold by
// construction, which gc_test's exhaustive gate tests pin.
//
// Ahead of time, a flipped input changes λ and nothing else: the
// colour-0 labels, hence every hash and (r1, r2), stay. The table moves
// by andLinear's difference between the old and new λ, which depends on
// Δ and on w of the colour-0 labels (kept per AND, garbled.corr) — not on
// a hash — and C by (λ_aλ_b ⊕ λ'_aλ'_b)·Δ.

// halves returns the left and right 64-bit halves of a label or hash.
func halves(x *prf.Block) (l, r uint64) {
	return binary.LittleEndian.Uint64(x[:8]), binary.LittleEndian.Uint64(x[8:])
}

// bitMask returns all ones for b = 1 and zero for b = 0.
func bitMask(b uint8) uint64 { return -uint64(b) }

// mulRho returns ρ·w in GF(4) on the pair of halves w = (w1, w2): the
// control map the evaluator applies, row by row, to her labels.
func mulRho(r1, r2 uint8, w1, w2 uint64) (l, r uint64) {
	m1, m2 := bitMask(r1), bitMask(r2)
	return (m1^m2)&w1 ^ m1&w2, m1&w1 ^ m2&w2
}

// colourW returns w of the colour-0 labels A and B.
func colourW(a, b *prf.Block) (w1, w2 uint64) {
	aL, aR := halves(a)
	bL, bR := halves(b)
	return aR ^ bL, aL ^ bL ^ bR
}

// andLinear returns the part of an AND gate's solved table that no hash
// contributes: its share of the output zero label's halves, of the three
// half-ciphertexts and of the 5 control bits (g0, g1, g2, cL, cR from bit
// 0 up), given w of the colour-0 labels, Δ's halves, the inputs' zero-label
// colours and the randomness (r1, r2). The colour-0 labels' own halves
// (B^L in G0, A^R in G1) are the caller's: they do not depend on λ.
func andLinear(w1, w2, dL, dR uint64, la, lb, r1, r2 uint8) (cL, cR uint64, g [3]uint64, ctl uint8) {
	// ρ and the AND's truth value t = (i⊕λ_a)(j⊕λ_b) on rows 00, 10, 01,
	// where the labels are A ⊕ iΔ and B ⊕ jΔ.
	r10a, r10b := r1^la, r2^la^lb
	r01a, r01b := r1^la^lb, r2^lb
	cL, cR = mulRho(r1, r2, w1, w2)
	l10, rr10 := mulRho(r10a, r10b, w1^dR, w2^dL)
	_, rr01 := mulRho(r01a, r01b, w1^dL, w2^dL^dR)
	t00, t10, t01 := bitMask(la&lb), bitMask(^la&lb&1), bitMask(la&^lb&1)
	cL ^= t00 & dL
	cR ^= t00 & dR
	l10 ^= t10 & dL
	rr10 ^= t10 & dR
	rr01 ^= t01 & dR
	g[2] = rr10 ^ cR
	g[0] = l10 ^ cL ^ g[2]
	g[1] = rr01 ^ cR ^ g[2]
	// ρ's share of the control bits, solved from the same three rows as
	// the halves: g2 = ρ₂(1,0) ⊕ ρ₂(0,0), g0 = ρ₁(1,0) ⊕ ρ₁(0,0) ⊕ g2,
	// g1 = ρ₂(0,1) ⊕ ρ₂(0,0) ⊕ g2, (cL, cR) = ρ(0,0).
	ctl = lb | la<<1 | (la^lb)<<2 | r1<<3 | r2<<4
	return cL, cR, g, ctl
}

// andHashes are the six hashes the garbler makes of an AND gate: of the
// colour-0 and colour-1 labels of A, then of B, then of A⊕B.
type andHashes [6]prf.Block

// garbleAND solves one AND gate of one slot: it writes the three
// half-ciphertexts to ct and returns the output zero label and the 5
// control bits. a and b are the colour-0 input labels, la and lb the
// colours of the zero labels.
func garbleAND(a, b, delta *prf.Block, la, lb uint8, h *andHashes, ct []byte) (out prf.Block, ctl uint8) {
	aL, aR := halves(a)
	bL, bR := halves(b)
	dL, dR := halves(delta)
	var hh [6]uint64
	for k := range h {
		hh[k], _ = halves(&h[k])
	}
	r1 := (h[0][8] ^ h[1][8]) >> 1 & 1
	r2 := (h[2][8] ^ h[3][8]) >> 1 & 1
	cL, cR, g, ctl := andLinear(aR^bL, aL^bL^bR, dL, dR, la, lb, r1, r2)
	binary.LittleEndian.PutUint64(out[:8], cL^hh[0]^hh[4])
	binary.LittleEndian.PutUint64(out[8:], cR^hh[2]^hh[4])
	binary.LittleEndian.PutUint64(ct[0:], g[0]^hh[0]^hh[1]^bL)
	binary.LittleEndian.PutUint64(ct[8:], g[1]^hh[2]^hh[3]^aR)
	binary.LittleEndian.PutUint64(ct[16:], g[2]^hh[4]^hh[5])
	m := func(x, y int) uint8 { return (h[x][8] ^ h[y][8]) & 1 }
	ctl ^= m(0, 1) | m(2, 3)<<1 | m(4, 5)<<2 | m(0, 4)<<3 | m(2, 4)<<4
	return out, ctl
}

// evalAND evaluates one AND gate of one slot from the active labels a and
// b, the hashes of a, b and a⊕b under the gate's tweaks, its
// half-ciphertexts ct and its control bits.
func evalAND(a, b, hA, hB, hX *prf.Block, ct []byte, ctl uint8) (out prf.Block) {
	i, j := a.LSB(), b.LSB()
	mi, mj, mij := bitMask(i), bitMask(j), bitMask(i^j)
	r1, r2 := decodeRho(i, j, hA, hB, hX, ctl)
	aL, aR := halves(a)
	bL, bR := halves(b)
	l, r := mulRho(r1, r2, aR^bL, aL^bL^bR)
	ha, _ := halves(hA)
	hb, _ := halves(hB)
	hx, _ := halves(hX)
	g0 := binary.LittleEndian.Uint64(ct[0:])
	g1 := binary.LittleEndian.Uint64(ct[8:])
	g2 := binary.LittleEndian.Uint64(ct[16:])
	binary.LittleEndian.PutUint64(out[:8], ha^hx^mi&(g0^bL)^mij&g2^l)
	binary.LittleEndian.PutUint64(out[8:], hb^hx^mj&(g1^aR)^mij&g2^r)
	return out
}

// decodeRho returns the control values ρ of colour row (i, j) from the
// control bits and the mask bits of the row's hashes.
func decodeRho(i, j uint8, hA, hB, hX *prf.Block, ctl uint8) (r1, r2 uint8) {
	ctlBit := func(k uint) uint8 { return ctl >> k & 1 }
	r1 = (hA[8]^hX[8])&1 ^ i&ctlBit(0) ^ (i^j)&ctlBit(2) ^ ctlBit(3)
	r2 = (hB[8]^hX[8])&1 ^ j&ctlBit(1) ^ (i^j)&ctlBit(2) ^ ctlBit(4)
	return r1, r2
}

// correctAND moves an AND gate's half-ciphertexts ct and control bits
// from zero-label colours (la, lb) to (la^fa, lb^fb), given w of its
// colour-0 labels: andLinear's difference, which (r1, r2) do not enter.
// It returns the control bits to XOR in.
func correctAND(w1, w2 uint64, delta *prf.Block, la, lb, fa, fb uint8, ct []byte) uint8 {
	dL, dR := halves(delta)
	_, _, g0, c0 := andLinear(w1, w2, dL, dR, la, lb, 0, 0)
	_, _, g1, c1 := andLinear(w1, w2, dL, dR, la^fa, lb^fb, 0, 0)
	for k := range g0 {
		v := binary.LittleEndian.Uint64(ct[8*k:])
		binary.LittleEndian.PutUint64(ct[8*k:], v^g0[k]^g1[k])
	}
	return c0 ^ c1
}

// ctlAt returns the 5 control bits of AND q (whole-circuit index) from
// the packed control region v, bit i of AND q at bit 5q+i. They spill
// into the next byte only from bit offset 4 on, where that byte is the
// region's.
func ctlAt(v []byte, q int) uint8 {
	i := 5 * q
	w := uint16(v[i>>3])
	if i&7 > 3 {
		w |= uint16(v[i>>3+1]) << 8
	}
	return uint8(w>>(i&7)) & 31
}

// xorCtl XORs bits into the control bits of AND q.
func xorCtl(v []byte, q int, bits uint8) {
	i := 5 * q
	w := uint16(bits&31) << (i & 7)
	v[i>>3] ^= byte(w)
	if i&7 > 3 {
		v[i>>3+1] ^= byte(w >> 8)
	}
}

// b2u returns 1 for true and 0 for false.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
