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

// leafKernel selects prf's lane kernels (prf.Lanes) for every leaf
// stream: the GGM levels of setup, both ends of every batch of both
// extensions. Without AES-NI and SSSE3 they run one key at a time
// through KeyStream (expandNodes, chunkTile), the path the tests compare
// the kernels with. A variable so the tests can force that path.
var leafKernel = prf.Lanes()

// expandNodes sets kids[2i] and kids[2i+1] to the two children of the
// GGM node parents[i]: AES-CTR under it, bytes [0, 32). On the lane
// kernel eight nodes share a pass and their schedules are expanded four
// at a time; a setup expands every chunk's level at once.
func expandNodes(kids, parents []prf.Seed) {
	var keys [8]prf.CTR
	var out [2 * len(keys)]prf.Block
	for i := 0; i < len(parents); i += len(keys) {
		n := min(len(keys), len(parents)-i)
		prf.NewCTRs(keys[:n], parents[i:i+n])
		if leafKernel {
			// Lanes past n rerun the previous group's (or zero) keys.
			prf.KeyBlocks(out[:], 2, &keys, 0, 2, false)
		} else {
			for l := range keys[:n] {
				keys[l].KeyStream(prf.BlockBytes(out[2*l:2*l+2]), 0)
			}
		}
		for l := 0; l < 2*n; l++ {
			kids[2*i+l] = prf.Seed(out[l])
		}
	}
}

// xorSeed returns a ⊕ b.
func xorSeed(a, b prf.Seed) prf.Seed {
	prf.XORBytes(a[:], a[:], b[:])
	return a
}

// newReceiver builds an extension receiver from the κ seed pairs of its
// base OTs and returns it with the GGM corrections its peer's sender
// needs. Chunk j's tree is built level by level in its leaves,
// r.leaves[j·2^k:]: level ℓ's node p (an ℓ-bit prefix of a leaf index,
// first level in bit 0) sits at index p, and its children at p and
// p + 2^ℓ. Each level of every chunk is expanded in one expandNodes call.
func newReceiver(conn transport.Conn, pairs [][2]prf.Seed) (*Receiver, []byte) {
	r := &Receiver{conn: conn, leaves: new([chunks * chunkLeaves]prf.Seed)}
	corr := make([]byte, treeBytes)
	tree := func(j int) []prf.Seed { return r.leaves[j*chunkLeaves : (j+1)*chunkLeaves] }
	for j := 0; j < chunks; j++ {
		tree(j)[0], tree(j)[1] = pairs[j*chunkBits][0], pairs[j*chunkBits][1]
	}
	var parents [chunks * chunkLeaves / 2]prf.Seed
	var kids [chunks * chunkLeaves]prf.Seed
	for l := 1; l < chunkBits; l++ {
		h := 1 << l
		for j := 0; j < chunks; j++ {
			copy(parents[j*h:(j+1)*h], tree(j)[:h])
		}
		expandNodes(kids[:2*chunks*h], parents[:chunks*h])
		for j := 0; j < chunks; j++ {
			nodes := tree(j)
			var sum [2]prf.Seed
			for p := 0; p < h; p++ {
				nodes[p], nodes[p+h] = kids[2*(j*h+p)], kids[2*(j*h+p)+1]
				sum[0], sum[1] = xorSeed(sum[0], nodes[p]), xorSeed(sum[1], nodes[p+h])
			}
			for b, k := range pairs[j*chunkBits+l] {
				e := xorSeed(sum[b], k)
				copy(corr[((j*(chunkBits-1)+l-1)*2+b)*prf.SeedSize:], e[:])
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
	s := &Sender{conn: conn, senderKeys: new(senderKeys)}
	var nodes [chunks][chunkLeaves]prf.Seed
	var delta [chunks]int
	for j := range nodes {
		for b, cb := range c[j*chunkBits : (j+1)*chunkBits] {
			if !cb {
				delta[j] |= 1 << b
			}
		}
		nodes[j][1^delta[j]&1] = seeds[j*chunkBits]
	}
	var parents [chunks * chunkLeaves / 2]prf.Seed
	var kids [chunks * chunkLeaves]prf.Seed
	for l := 1; l < chunkBits; l++ {
		h, n := 1<<l, 0
		for j := range nodes {
			for p := 0; p < h; p++ {
				if p != delta[j]&(h-1) {
					parents[n], n = nodes[j][p], n+1
				}
			}
		}
		expandNodes(kids[:2*n], parents[:n])
		n = 0
		for j := range nodes {
			path := delta[j] & (h - 1)
			var sum [2]prf.Seed
			for p := 0; p < h; p++ {
				if p == path {
					continue
				}
				nodes[j][p], nodes[j][p+h], n = kids[2*n], kids[2*n+1], n+1
				sum[0], sum[1] = xorSeed(sum[0], nodes[j][p]), xorSeed(sum[1], nodes[j][p+h])
			}
			b := 1 ^ delta[j]>>l&1 // = c_l: the side base OT l opens
			e := prf.Seed(corr[((j*(chunkBits-1)+l-1)*2+b)*prf.SeedSize:])
			nodes[j][path+b*h] = xorSeed(xorSeed(e, seeds[j*chunkBits+l]), sum[b])
			nodes[j][path+(1-b)*h] = prf.Seed{}
		}
	}
	for j := range nodes {
		s.s[j*chunkBits/8] |= byte(delta[j]) << (j * chunkBits % 8)
		for y := 0; y < chunkLeaves; y++ {
			s.leaves[j*chunkLeaves+y] = nodes[j][y^delta[j]] // y = 0 is Δ_j, a zero seed
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
// sums at once: a piece never crosses a multiple of pieceBytes in the
// stream, so it spans at most pieceBlocks counter blocks, and a worker's
// lane scratch (laneScratch) is 2 KiB of its stack, beside 3 KiB of key
// schedules. A SoftSpoken sender's pieces are its tiles, tileBytes long.
const pieceBytes = 2 * tileBytes

// pieceBlocks is the number of AES blocks a piece spans at most.
const pieceBlocks = pieceBytes / 16

// laneScratch is a worker's scratch for chunkLanes: the kernel's rows of
// one piece (a chunk's total and its k sums, or eight lanes), pieceBlocks
// apart.
type laneScratch [8 * pieceBlocks]prf.Block

// chunkLanes is the chunk kernel on prf's lane kernels, for every chunk
// of one kernel call. keys holds the sixteen leaves of one chunk at k =
// 4 (when first = 1, slot 0 is the punctured leaf: it runs, and its
// total is dropped); at k = 1, the leaf pairs of four chunks, keys[2i +
// y] chunk i's leaf y, or, when first = 1, the one leaf of each of eight
// chunks (the columns of a KKRT sender). Over n bytes of the leaf
// streams from offset off, in pieces of at most pieceBytes, it XORs
// chunk i's column sum ⊕_{y_b = 1} G(leaf y) into sums[(i·k + b)·stride:]
// for each b < k and, when first = 0, its total ⊕_y G(leaf y) into
// tot[i·stride:]. LeafSums folds a k = 4 chunk in registers; at k = 1 a
// pass is four chunks' pairs (KeyBlocks with pairs) or eight chunks'
// leaves.
func chunkLanes(g *laneScratch, sums, tot []byte, stride, k, n int, off uint64, keys []prf.CTR, first int) {
	per, lead, group := k+1, 1, len(keys)>>k // rows per chunk, its first sum row, chunks per call
	if k == 1 && first == 1 {
		per, lead, group = 1, 0, len(keys)
	}
	out := prf.BlockBytes(g[:])
	for c, p := 0, 0; c < n; c += p {
		at := off + uint64(c)
		p = pieceLen(n-c, at)
		skip := int(at % 16)
		nb := (skip + p + 15) / 16
		if k == chunkBits {
			prf.LeafSums(g[:], pieceBlocks, (*[chunkLeaves]prf.CTR)(keys), at/16, nb)
		} else {
			prf.KeyBlocks(g[:], pieceBlocks, (*[8]prf.CTR)(keys), at/16, nb, first == 0)
		}
		row := func(r int) []byte { return out[r*pieceBytes+skip : r*pieceBytes+skip+p] }
		for i := 0; i < group; i++ {
			if first == 0 {
				ti := tot[i*stride+c : i*stride+c+p]
				prf.XORBytes(ti, ti, row(i*per))
			}
			for b := 0; b < k; b++ {
				col := sums[(i*k+b)*stride+c : (i*k+b)*stride+c+p]
				prf.XORBytes(col, col, row(i*per+lead+b))
			}
		}
	}
}

// leafTiles is a worker's scratch for one piece of a chunk on the
// one-key-at-a-time path: every leaf's stream, folded in place as
// chunkTile sums them.
type leafTiles [chunkLeaves][pieceBytes]byte

// chunkTile sums one piece of a chunk of 2^k leaves one key at a time,
// n ≤ pieceBytes bytes of the leaf streams from offset off: column b of
// sums, n bytes at sums[b·stride:], gets ⊕_{y_b = 1} G(leaf y) for every
// b < k. keys[i] is leaf first + i: a receiver's first is 0 and g[0]
// ends up holding ⊕_y G(leaf y), a sender's is 1 and g[0] is left alone.
// The sums fold the streams a bit at a time — g[x] ⊕= g[x + 2^b] over
// every x with its low b + 1 bits clear — so a chunk takes 2^k − 1 XORs
// for its k sums and as many for the whole, instead of one per leaf and
// set bit. It is the path without the lane kernels, and their reference.
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
// from offset at: up to the next multiple of pieceBytes.
func pieceLen(rest int, at uint64) int { return min(rest, pieceBytes-int(at%pieceBytes)) }

// expandChunks is the receiver's half of a batch over w chunks of 2^k
// leaves, colBytes per column from byte off of the leaf streams, chunk
// j's leaf y seeded by leaves[j·2^k + y]: chunk j's columns t_{kj+b} =
// ⊕_{y_b = 1} G(leaf y) go to t, and its correction u_j = x_j ⊕ ⊕_y
// G(leaf y) to u, for the choice input x_j at x[j·xStride:] — stride 0
// when every chunk has the same (IKNP's r), and x may be t itself
// (KKRT's code columns): x_j is read before t_j is written. A kernel
// call's schedules (one chunk's 16 at k = 4, four chunks' pairs at
// k = 1) are expanded in its worker, on its stack, and it writes only
// its own slices, so the output is the same at any worker count.
func expandChunks(t, u, x []byte, xStride, w, k, colBytes int, off uint64, leaves []prf.Seed) {
	if !leafKernel {
		expandChunksRef(t, u, x, xStride, w, k, colBytes, off, leaves)
		return
	}
	group := max(1, 8>>k) // chunks per kernel call
	lanes := group << k
	parallel.For(w/group, 1, func(lo, hi int) {
		var keys [chunkLeaves]prf.CTR
		var g laneScratch
		for gi := lo; gi < hi; gi++ {
			j0 := gi * group
			prf.NewCTRs(keys[:lanes], leaves[j0<<k:j0<<k+lanes])
			for j := j0; j < j0+group; j++ {
				copy(u[j*colBytes:(j+1)*colBytes], x[j*xStride:])
			}
			clear(t[j0*k*colBytes : (j0+group)*k*colBytes])
			chunkLanes(&g, t[j0*k*colBytes:], u[j0*colBytes:], colBytes, k, colBytes, off, keys[:lanes], 0)
		}
	})
}

// expandChunksRef is expandChunks one key at a time (chunkTile), with a
// chunk's 2^k schedules expanded in its worker.
func expandChunksRef(t, u, x []byte, xStride, w, k, colBytes int, off uint64, leaves []prf.Seed) {
	parallel.For(w, 1, func(lo, hi int) {
		var keys [chunkLeaves]prf.CTR
		var g leafTiles
		for j := lo; j < hi; j++ {
			for y := range keys[:1<<k] {
				keys[y] = prf.NewCTR(leaves[j<<k+y])
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
