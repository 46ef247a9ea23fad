package prf

import "fmt"

// The lane kernels run AES-128 under many keys at once. An OT-extension
// batch reads one short piece of every leaf stream of every GGM chunk
// (ot/softspoken.go): 512 streams of a few blocks each for a small batch.
// Read one key at a time, each piece costs a whole 8-block pass and each
// stream a key schedule of its own; here the eight lanes of a pass are
// eight keys at one counter block, each under its own round keys, so a
// pass is full whenever a piece is at least a block, and the schedules
// are expanded four at a time. The keystream is CTR's byte for byte:
// lane l of counter c is AES_{keys[l]}(c).

// Lanes reports whether LeafSums and KeyBlocks run here: like the MMO
// kernel they need AES-NI and SSSE3. Without them a caller reads each
// key's stream through KeyStream instead.
func Lanes() bool { return hasAES8 }

// NewCTRs sets dst[i] = NewCTR(keys[i]) for every i < len(dst), four
// schedules at a time where AES-NI is present.
func NewCTRs(dst []CTR, keys []Seed) {
	keys = keys[:len(dst)]
	i := 0
	if hasAES8 {
		for ; i+4 <= len(dst); i += 4 {
			rk := (*[4]CTR)(dst[i : i+4])
			for k := range rk {
				rk[k].block = nil
			}
			expandKeys4((*[4]Seed)(keys[i:i+4]), rk)
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = NewCTR(keys[i])
	}
}

// LeafSums runs the sixteen leaves keys[y] of a chunk on the n counter
// blocks ctr, …, ctr+n−1 and folds them in registers: for each i < n,
// dst[i] = ⊕_y AES_{keys[y]}(ctr+i), the chunk's total, and
// dst[(1+b)·stride+i] = ⊕_{y_b = 1} AES_{keys[y]}(ctr+i) for each index
// bit b < 4. It needs Lanes, and keys built by NewCTR or NewCTRs there.
func LeafSums(dst []Block, stride int, keys *[16]CTR, ctr uint64, n int) {
	checkLanes(dst, stride, 5, n)
	leafSums(keys, &dst[0], stride, ctr, n)
}

// KeyBlocks runs the eight keys on the n counter blocks ctr, …,
// ctr+n−1: dst[l·stride+i] = AES_{keys[l]}(ctr+i) for each lane l < 8
// and i < n. With pairs, dst[2p·stride+i] is instead the XOR of lanes 2p
// and 2p+1: the total of a chunk of two leaves, beside its one sum. It
// needs Lanes, as LeafSums does.
func KeyBlocks(dst []Block, stride int, keys *[8]CTR, ctr uint64, n int, pairs bool) {
	checkLanes(dst, stride, 8, n)
	keyBlocks(keys, &dst[0], stride, ctr, n, pairs)
}

// checkLanes panics unless dst holds rows rows of n ≥ 1 blocks, stride
// blocks apart: the kernels write without bounds checks, and only a
// caller's bug passes a wrong shape.
func checkLanes(dst []Block, stride, rows, n int) {
	if n < 1 || stride < n || len(dst) < (rows-1)*stride+n {
		panic(fmt.Sprintf("prf: lane kernel writing %d rows of %d blocks, %d apart, into %d blocks", rows, n, stride, len(dst)))
	}
}
