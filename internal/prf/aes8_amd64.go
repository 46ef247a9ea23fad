//go:build amd64

package prf

// hasAES8 reports whether the batched 8-wide AESENC kernel is usable.
// AES-NI has been ubiquitous on x86-64 since ~2010, but the check keeps
// the package correct under emulators and stripped-down VMs, where
// HashBlocks and CTR simply stay on the per-block cipher path. It is a
// variable so the tests can force that path.
var hasAES8 = cpuHasAES()

// cpuHasAES reports the CPUID AES-NI feature bit (leaf 1, ECX bit 25).
func cpuHasAES() bool

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
