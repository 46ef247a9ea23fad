//go:build amd64

package prf

import "unsafe"

// hasAES8 reports whether the 8-wide AESENC kernels — the fused MMO
// kernel and CTR's — are usable. AES-NI has been ubiquitous on x86-64
// since ~2010, but the check keeps the package correct under emulators
// and stripped-down VMs, where the MMO hashes and CTR simply stay on the
// per-block cipher path. It is a variable so the tests can force that
// path.
var hasAES8 = cpuHasAES()

// cpuHasAES reports the CPUID AES-NI and SSSE3 feature bits (leaf 1,
// ECX bits 25 and 9): the kernels below need both.
func cpuHasAES() bool

// mmoBlocksAsm is the fused MMO kernel: for the n blocks at src (n a
// positive multiple of 8) it writes dst[i] = π(d) ⊕ d, d = 2·src[i] ⊕
// (w, lo[i]), under the expanded key rk — the doubling, the tweak XOR, the
// ten rounds and the feed-forward of eight lanes at a time, in registers.
// dst may equal src.
//
//go:noescape
func mmoBlocksAsm(rk *byte, dst, src *Block, lo *uint64, w uint64, n int)

// mmoBlocks runs the fused kernel under π on n blocks, n a positive
// multiple of 8.
func mmoBlocks(dst, src *Block, lo *uint64, w Word, n int) {
	mmoBlocksAsm(&fixedRoundKeys[0], dst, src, lo, uint64(w), n)
}

// encryptBlocks8Asm applies ten AESENC rounds of the expanded key rk to
// the eight consecutive blocks at src, writing the eight blocks at dst
// (which may alias src). Keeping eight states in flight hides the
// multi-cycle AESENC latency that a one-block-per-call cipher cannot.
//
//go:noescape
func encryptBlocks8Asm(rk *byte, dst, src *Block)

// encryptBlocks8 is the typed wrapper the hash and keystream paths call:
// the fixed MMO key's schedule or a CTR's.
func encryptBlocks8(rk *[176]byte, dst, src *[8]Block) {
	encryptBlocks8Asm(&rk[0], &dst[0], &src[0])
}

// expandKey128Asm writes the 11 round keys of the AES-128 key at key
// into rk (176 bytes), in expandAESKey128's layout, with AESENCLAST as
// the S-box: a receiver of the OT extension expands one schedule per
// leaf and batch, and AESENCLAST pipelines where AESKEYGENASSIST does not
// (≈ 40 ns a schedule against ≈ 75 ns, and 230 ns in Go).
//
//go:noescape
func expandKey128Asm(key, rk *byte)

// expandKey128 is NewCTR's key schedule on AES-NI, which hasAES8
// guarantees whenever a schedule is expanded.
func expandKey128(key *Seed, rk *[176]byte) { expandKey128Asm(&key[0], &rk[0]) }

// ctrBytes is the size of a CTR, the distance between consecutive lanes'
// schedules in the lane kernels (aes8_amd64.s hard-codes it); the two
// array lengths below fail to compile if the size changes.
const ctrBytes = 192

var (
	_ [ctrBytes - unsafe.Sizeof(CTR{})]byte
	_ [unsafe.Sizeof(CTR{}) - ctrBytes]byte
)

// expandKeys4Asm writes the schedules of the four keys at keys into the
// four CTRs at rk: expandKey128Asm with the four keys' AESENCLAST S-boxes
// interleaved, so they pipeline (≈ 10.5 ns a key against 21–25 ns one
// at a time, BenchmarkLanes).
//
//go:noescape
func expandKeys4Asm(keys *Seed, rk *CTR)

func expandKeys4(keys *[4]Seed, rk *[4]CTR) { expandKeys4Asm(&keys[0], &rk[0]) }

// leafSumsAsm is LeafSums' kernel; stride is in bytes.
//
//go:noescape
func leafSumsAsm(keys *CTR, dst *Block, stride int, ctr uint64, n int)

func leafSums(keys *[16]CTR, dst *Block, stride int, ctr uint64, n int) {
	leafSumsAsm(&keys[0], dst, stride*len(Block{}), ctr, n)
}

// keyBlocksAsm is KeyBlocks' kernel; stride is in bytes.
//
//go:noescape
func keyBlocksAsm(keys *CTR, dst *Block, stride int, ctr uint64, n int, pairs bool)

func keyBlocks(keys *[8]CTR, dst *Block, stride int, ctr uint64, n int, pairs bool) {
	keyBlocksAsm(&keys[0], dst, stride*len(Block{}), ctr, n, pairs)
}
