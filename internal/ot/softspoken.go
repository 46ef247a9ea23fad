package ot

import (
	"secyan/internal/parallel"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// This file is the SoftSpoken OT extension (Roy, CRYPTO 2022) at k = 4,
// semi-honest: IKNP's correlation q_j = t_j ⊕ (r_j ∧ s) from a quarter
// of IKNP's correction matrix, under IKNP's own assumptions (a PRG and
// the correlation-robust hash of the pads).
//
// The κ base OTs form chunks of chunkBits. Each chunk is a GGM tree over
// chunkLeaves leaf seeds that the receiver knows whole and the sender
// knows punctured at one leaf Δ_j: its level-1 nodes are base OT 0's two
// seeds, and each further level ℓ is the receiver's children of level
// ℓ − 1 (AES-CTR under the parent, bytes [0, 32)) with the XOR of all
// its left and of all its right children sent one-time-padded under
// base OT ℓ's two seeds (the setup's GGM corrections, treeBytes). A
// sender whose base-OT choice bits are c_j learns every node off the
// path ¬c_j, so Δ_j = ¬c_j: it recovers every leaf but Δ_j.
//
// In a batch every leaf x of chunk j expands into a stream r_{j,x}. The
// receiver sets t_{kj+b} = ⊕_{x_b = 1} r_{j,x} and sends one column per
// chunk, u_j ⊕ r for u_j = ⊕_x r_{j,x} and r its choice bits; the sender
// sets
//
//	q_{kj+b} = ⊕_{x ≠ Δ_j, (x ⊕ Δ_j)_b = 1} r_{j,x} ⊕ Δ_{j,b}·(u_j ⊕ r)
//
// which is t_{kj+b} ⊕ Δ_{j,b}·r: IKNP's correlation with s = Δ. The
// column it cannot compute, r_{j,Δ_j}, masks r in the message. From the
// rows on (transpose, pad hash, pool, correlated and chosen batches)
// nothing differs from IKNP.
//
// KKRT (kkrt.go) is the same kernel at k = 1 with no tree: a chunk is
// one base OT whose two seeds are its leaves, swapped (leaf x is seed
// ¬x), so t = G(k⁰), u = G(k⁰) ⊕ G(k¹) ⊕ x and Δ = s: IKNP's column
// expansion.

const (
	// chunkBits is SoftSpoken's k, fixed: 4 bits of Δ per chunk, a
	// quarter of IKNP's wire for 2^k − 1 = 15 leaf streams per chunk
	// instead of one seed per column.
	chunkBits = 4
	// chunkLeaves is the leaf count of a chunk's tree, 2^k.
	chunkLeaves = 1 << chunkBits
	// chunks is the number of GGM trees of an extension: the columns of
	// its correction message.
	chunks = kappa / chunkBits
	// treeBytes is the GGM correction message of one direction's setup:
	// per chunk, levels 2..k, each one left and one right sum.
	treeBytes = chunks * (chunkBits - 1) * 2 * prf.SeedSize
)

// expandNode returns the two children of a GGM node: AES-CTR under its
// seed, bytes [0, 32).
func expandNode(seed prf.Seed) (c0, c1 prf.Seed) {
	var b [2 * prf.SeedSize]byte
	g := prf.NewCTR(seed)
	g.KeyStream(b[:], 0)
	return prf.Seed(b[:prf.SeedSize]), prf.Seed(b[prf.SeedSize:])
}

// xorSeed returns a ⊕ b.
func xorSeed(a, b prf.Seed) prf.Seed {
	prf.XORBytes(a[:], a[:], b[:])
	return a
}

// newReceiver builds an extension receiver from the κ seed pairs of its
// base OTs and returns it with the GGM corrections its peer's sender
// needs. Chunk j's tree is built level by level in its leaf array: level
// ℓ's node p (an ℓ-bit prefix of a leaf index, first level in bit 0)
// sits at index p, and its children at p and p + 2^ℓ.
func newReceiver(conn transport.Conn, pairs [][2]prf.Seed) (*Receiver, []byte) {
	r := &Receiver{conn: conn}
	corr := make([]byte, 0, treeBytes)
	for j := range r.leaves {
		nodes := &r.leaves[j]
		base := pairs[j*chunkBits : (j+1)*chunkBits]
		nodes[0], nodes[1] = base[0][0], base[0][1]
		for l := 1; l < chunkBits; l++ {
			h := 1 << l
			var sum [2]prf.Seed
			for p := 0; p < h; p++ {
				nodes[p], nodes[p+h] = expandNode(nodes[p])
				sum[0], sum[1] = xorSeed(sum[0], nodes[p]), xorSeed(sum[1], nodes[p+h])
			}
			for b, k := range base[l] {
				e := xorSeed(sum[b], k)
				corr = append(corr, e[:]...)
			}
		}
	}
	return r, corr
}

// newSender builds an extension sender from its κ base OTs — the choice
// bits c and the seeds they chose — and the receiver's GGM corrections,
// exactly treeBytes (length-checked by the caller; any content gives a
// working, if useless, sender). It rebuilds every node off the path to
// Δ_j = ¬c_j: at level ℓ + 1 the children of every known node, and the
// sibling of the path from base OT ℓ's chosen seed, the corrections and
// the known nodes of that side.
func newSender(conn transport.Conn, c []bool, seeds []prf.Seed, corr []byte) *Sender {
	s := &Sender{conn: conn}
	for j := 0; j < chunks; j++ {
		base, bits := seeds[j*chunkBits:(j+1)*chunkBits], c[j*chunkBits:(j+1)*chunkBits]
		delta := 0
		for b, cb := range bits {
			if !cb {
				delta |= 1 << b
			}
		}
		var nodes [chunkLeaves]prf.Seed
		nodes[1^delta&1] = base[0]
		for l := 1; l < chunkBits; l++ {
			h, path := 1<<l, delta&(1<<l-1)
			var sum [2]prf.Seed
			for p := 0; p < h; p++ {
				if p == path {
					continue
				}
				nodes[p], nodes[p+h] = expandNode(nodes[p])
				sum[0], sum[1] = xorSeed(sum[0], nodes[p]), xorSeed(sum[1], nodes[p+h])
			}
			b := 1 ^ delta>>l&1 // = c_l: the side base OT l opens
			e := prf.Seed(corr[((j*(chunkBits-1)+l-1)*2+b)*prf.SeedSize:])
			nodes[path+b*h] = xorSeed(xorSeed(e, base[l]), sum[b])
			nodes[path+(1-b)*h] = prf.Seed{}
		}
		s.s[j*chunkBits/8] |= byte(delta) << (j * chunkBits % 8)
		keys := s.leaves[j*(chunkLeaves-1) : (j+1)*(chunkLeaves-1)]
		for y := 1; y < chunkLeaves; y++ {
			keys[y-1] = prf.NewCTR(nodes[y^delta])
		}
	}
	return s
}

// The chunk kernel below runs both extensions: SoftSpoken at k =
// chunkBits (IKNP's correlation), KKRT at k = 1. A chunk's leaves are
// indexed relative to the puncture — leaf y is x = y ⊕ Δ, and the
// receiver's Δ is 0 — so both ends sum the same way and only the
// receiver has leaf 0.

// pieceBytes is the longest piece of a chunk's leaf streams the kernel
// sums at once: four 8-block keystream calls per leaf, so a receiver
// worker's 11 KiB of scratch (16 schedules, 16 leaf pieces) lives on its
// stack. A sender's pieces are its tiles, tileBytes long.
const pieceBytes = 4 * tileBytes

// leafTiles is a worker's scratch for one piece of a chunk: every
// leaf's stream, folded in place as chunkTile sums them.
type leafTiles [chunkLeaves][pieceBytes]byte

// chunkTile sums one piece of a chunk of 2^k leaves, n ≤ pieceBytes
// bytes of the leaf streams from offset off: column b of sums, n bytes
// at sums[b·stride:], gets ⊕_{y_b = 1} G(leaf y) for every b < k.
// keys[i] is leaf first + i: a receiver's first is 0 and g[0] ends up
// holding ⊕_y G(leaf y), a sender's is 1 and g[0] is left alone. The
// sums fold the streams a bit
// at a time — g[x] ⊕= g[x + 2^b] over every x with its low b + 1 bits
// clear — so a chunk takes 2^k − 1 XORs for its k sums and as many for
// the whole, instead of one per leaf and set bit.
func chunkTile(sums []byte, stride int, g *leafTiles, k, n int, off uint64, keys []prf.CTR, first int) {
	for i := range keys {
		keys[i].KeyStream(g[first+i][:n], off)
	}
	for b := 0; b < k; b++ {
		h, col := 1<<b, sums[b*stride:b*stride+n]
		copy(col, g[h][:n])
		for x := 0; x < 1<<k; x += 2 * h {
			if x > 0 {
				prf.XORBytes(col, col, g[x+h][:n])
			}
			if x > 0 || first == 0 {
				prf.XORBytes(g[x][:n], g[x][:n], g[x+h][:n])
			}
		}
	}
}

// pieceLen returns the length of the next piece of rest stream bytes
// from offset at: up to the next multiple of pieceBytes, so every piece
// of a column but its first and last is whole 8-block keystream calls.
func pieceLen(rest int, at uint64) int { return min(rest, pieceBytes-int(at%pieceBytes)) }

// expandChunks is the receiver's half of a batch over w chunks of 2^k
// leaves, colBytes per column from byte off of the leaf streams: chunk
// j's columns t_{kj+b} = ⊕_{x_b = 1} G(leaf(j, x)) go to t, and its
// correction u_j = x_j ⊕ ⊕_x G(leaf(j, x)) to u, for the choice input
// x_j at x[j·xStride:] — stride 0 when every chunk has the same (IKNP's
// r), and x may be t itself (KKRT's code columns): x_j is read before
// t_j is written. A chunk's 2^k schedules are expanded in its worker, on
// its stack, and it writes only its own slices, so the output is the
// same at any worker count.
func expandChunks(t, u, x []byte, xStride, w, k, colBytes int, off uint64, leaf func(j, x int) prf.Seed) {
	parallel.For(w, 1, func(lo, hi int) {
		var keys [chunkLeaves]prf.CTR
		var g leafTiles
		for j := lo; j < hi; j++ {
			for y := range keys[:1<<k] {
				keys[y] = prf.NewCTR(leaf(j, y))
			}
			tj, uj, xj := t[j*k*colBytes:(j+1)*k*colBytes], u[j*colBytes:(j+1)*colBytes], x[j*xStride:]
			for c, n := 0, 0; c < colBytes; c += n {
				n = pieceLen(colBytes-c, off+uint64(c))
				copy(uj[c:c+n], xj[c:c+n])
				chunkTile(tj[c:], colBytes, &g, k, n, off+uint64(c), keys[:1<<k], 0)
				prf.XORBytes(uj[c:c+n], uj[c:c+n], g[0][:n])
			}
		}
	})
}
