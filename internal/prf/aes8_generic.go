//go:build !amd64

package prf

// Non-amd64 builds have no batched AESENC kernel; the MMO hashes and CTR
// use the per-block cipher path throughout. A variable, as on amd64, so the
// tests that force the path compile everywhere.
var hasAES8 = false

func encryptBlocks8(rk *[176]byte, dst, src *[8]Block) {
	// Unreachable: a CTR calls it only when NewCTR expanded a schedule,
	// which it does only when hasAES8 is set. Nothing a peer sends
	// selects the path.
	panic("prf: encryptBlocks8 without hardware support")
}

func expandKey128(key *Seed, rk *[176]byte) {
	// Unreachable for the same reason: NewCTR expands a schedule only
	// when hasAES8 is set.
	panic("prf: expandKey128 without hardware support")
}

func mmoBlocks(dst, src *Block, lo *uint64, w Word, n int) {
	// Unreachable for the same reason: every MMO hash takes the
	// per-block path unless hasAES8 is set.
	panic("prf: mmoBlocks without hardware support")
}
