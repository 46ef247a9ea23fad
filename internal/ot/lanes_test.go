package ot

import (
	"bytes"
	"math/rand"
	"testing"

	"secyan/internal/prf"
)

// laneShapes are chunkLanes' four kinds of kernel call: k, first, and
// the keys per call.
var laneShapes = []struct{ k, first, keys int }{
	{chunkBits, 0, chunkLeaves}, // a SoftSpoken receiver's chunk
	{chunkBits, 1, chunkLeaves}, // a SoftSpoken sender's chunk, slot 0 punctured
	{1, 0, 8},                   // four KKRT receiver columns, two leaves each
	{1, 1, 8},                   // eight KKRT sender columns, one leaf each
}

// refChunkLanes is chunkLanes' contract on chunkTile, one key at a time
// and piece by piece: chunk i's sums and total XORed into sums and tot.
func refChunkLanes(sums, tot []byte, stride, k, n int, off uint64, keys []prf.CTR, first int) {
	var g leafTiles
	var col [chunkBits * pieceBytes]byte
	per := 1 << k // keys per chunk
	if k == 1 && first == 1 {
		per = 1
	}
	for i := 0; i < len(keys)/per; i++ {
		ck := keys[i*per : (i+1)*per]
		if k == chunkBits && first == 1 {
			ck = ck[1:] // the punctured leaf
		}
		for c, p := 0, 0; c < n; c += p {
			p = pieceLen(n-c, off+uint64(c))
			chunkTile(col[:], pieceBytes, &g, k, p, off+uint64(c), ck, first)
			for b := 0; b < k; b++ {
				dst := sums[(i*k+b)*stride+c : (i*k+b)*stride+c+p]
				prf.XORBytes(dst, dst, col[b*pieceBytes:b*pieceBytes+p])
			}
			if first == 0 {
				dst := tot[i*stride+c : i*stride+c+p]
				prf.XORBytes(dst, dst, g[0][:p])
			}
		}
	}
}

// checkChunkLanes runs one chunkLanes call of the given shape into
// random sums and totals, stride a little past n, and compares it with
// refChunkLanes.
func checkChunkLanes(t testing.TB, rng *rand.Rand, k, first int, keys []prf.CTR, n int, off uint64) {
	t.Helper()
	group := len(keys) >> k
	if k == 1 && first == 1 {
		group = len(keys)
	}
	stride := n + rng.Intn(3)
	sums, tot := make([]byte, group*k*stride), make([]byte, group*stride)
	rng.Read(sums)
	rng.Read(tot)
	wantSums, wantTot := bytes.Clone(sums), bytes.Clone(tot)
	refChunkLanes(wantSums, wantTot, stride, k, n, off, keys, first)
	var g laneScratch
	chunkLanes(&g, sums, tot, stride, k, n, off, keys, first)
	if !bytes.Equal(sums, wantSums) {
		t.Fatalf("k=%d first=%d n=%d off=%d: column sums differ from chunkTile's", k, first, n, off)
	}
	if !bytes.Equal(tot, wantTot) {
		t.Fatalf("k=%d first=%d n=%d off=%d: chunk totals differ from chunkTile's", k, first, n, off)
	}
}

// randomKeys returns n leaf keys from random seeds.
func randomKeys(rng *rand.Rand, n int) []prf.CTR {
	seeds := make([]prf.Seed, n)
	for i := range seeds {
		rng.Read(seeds[i][:])
	}
	keys := make([]prf.CTR, n)
	prf.NewCTRs(keys, seeds)
	return keys
}

// TestChunkKernelMatchesReference pins the lane path to the one-key path
// it replaces. First chunkLanes against chunkTile for all four kernel
// shapes (k = 4 and 1, receiver and sender), at every offset mod 16 and
// every length from 1 to pieceBytes + 1, so pieces start and end inside
// a block, span the most blocks a piece can, and split at a multiple of
// pieceBytes. Then, with the lane kernels switched off (leafKernel =
// false, the path prf.Lanes selects without AES-NI and SSSE3), every
// caller — expandChunks at both widths with the KKRT choice input
// aliasing T, a SoftSpoken sender's tileSums and a KKRT sender's columns
// — must produce the same bytes as on the kernels, and the GGM levels
// the same children.
func TestChunkKernelMatchesReference(t *testing.T) {
	if !leafKernel {
		t.Skip("no lane kernels on this platform")
	}
	rng := rand.New(rand.NewSource(56))
	for _, sh := range laneShapes {
		keys := randomKeys(rng, sh.keys)
		for r := uint64(0); r < 16; r++ {
			base := uint64(rng.Intn(1<<20)) * 16
			for n := 1; n <= pieceBytes+1; n++ {
				checkChunkLanes(t, rng, sh.k, sh.first, keys, n, base+r)
			}
		}
	}

	both := func(f func() []byte) (lanes, ref []byte) {
		lanes = f()
		leafKernel = false
		defer func() { leafKernel = true }()
		return lanes, f()
	}
	for _, c := range []struct{ k, w, colBytes int }{
		{chunkBits, chunks, 8}, {chunkBits, chunks, 520}, {1, KKRTWidth, 1}, {1, KKRTWidth, 37}, {1, KKRTWidth, 300},
	} {
		leaves := make([]prf.Seed, c.w<<c.k)
		for i := range leaves {
			rng.Read(leaves[i][:])
		}
		x := make([]byte, c.w*c.k*c.colBytes)
		rng.Read(x)
		off := uint64(rng.Intn(1<<20))*16 + uint64(rng.Intn(16))
		lanes, ref := both(func() []byte {
			tm, u := bytes.Clone(x), make([]byte, c.w*c.colBytes)
			if c.k == chunkBits { // IKNP's r: every chunk the same
				expandChunks(tm, u, x[:c.colBytes], 0, c.w, c.k, c.colBytes, off, leaves)
			} else { // KKRT's code columns, in T itself
				expandChunks(tm, u, tm, c.colBytes, c.w, c.k, c.colBytes, off, leaves)
			}
			return append(tm, u...)
		})
		if !bytes.Equal(lanes, ref) {
			t.Fatalf("expandChunks k=%d colBytes=%d: the lane path differs from chunkTile's", c.k, c.colBytes)
		}
	}

	s := &senderKeys{}
	for i := range s.leaves {
		rng.Read(s.leaves[i][:])
	}
	seeds := s.leaves[:]
	for _, n := range []int{1, 8, 100, tileBytes} {
		at := uint64(rng.Intn(1<<20)) * 16
		lanes, ref := both(func() []byte {
			var q [kappa * tileBytes]byte
			s.tileSums(&q, n, at)
			return q[:]
		})
		if !bytes.Equal(lanes, ref) {
			t.Fatalf("tileSums n=%d: the lane path differs from chunkTile's", n)
		}
	}

	ks := &KKRTSender{seeds: seeds[:KKRTWidth], off: uint64(rng.Intn(1<<20))*16 + 5}
	rng.Read(ks.s[:])
	for _, colBytes := range []int{1, 33, 300} {
		u := make([]byte, KKRTWidth*colBytes)
		rng.Read(u)
		lanes, ref := both(func() []byte {
			q := bytes.Clone(u)
			ks.columns(q, colBytes)
			return q
		})
		if !bytes.Equal(lanes, ref) {
			t.Fatalf("KKRT columns colBytes=%d: the lane path differs from chunkTile's", colBytes)
		}
	}

	for _, n := range []int{1, 7, 8, 9, 64} {
		lanes, ref := both(func() []byte {
			kids := make([]prf.Seed, 2*n)
			expandNodes(kids, seeds[:n])
			var out []byte
			for _, k := range kids {
				out = append(out, k[:]...)
			}
			return out
		})
		if !bytes.Equal(lanes, ref) {
			t.Fatalf("expandNodes of %d nodes: the lane path differs from KeyStream's", n)
		}
	}
}

// FuzzChunkKernel compares chunkLanes with chunkTile on any shape, key
// material, offset and length up to a few pieces.
func FuzzChunkKernel(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint16(1), int64(1))
	f.Add(uint8(1), uint64(15), uint16(pieceBytes+1), int64(2))
	f.Add(uint8(2), uint64(1<<32-3), uint16(37), int64(3))
	f.Add(uint8(3), uint64(pieceBytes-1), uint16(2), int64(4))
	f.Fuzz(func(t *testing.T, shape uint8, off uint64, n uint16, seed int64) {
		if !leafKernel {
			t.Skip("no lane kernels on this platform")
		}
		sh := laneShapes[int(shape)%len(laneShapes)]
		size := 1 + int(n)%(3*pieceBytes)
		off >>= 4 // keep off + size inside the 2^64-byte stream
		rng := rand.New(rand.NewSource(seed))
		checkChunkLanes(t, rng, sh.k, sh.first, randomKeys(rng, sh.keys), size, off)
	})
}
