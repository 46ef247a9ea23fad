package prf

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"unsafe"
)

// Block is a 128-bit value: a garbled-circuit wire label or AES block.
type Block [16]byte

// fixedKeyMaterial is the public constant key of the fixed permutation π
// shared by every MMO call site below. Any fixed key works; hardware AES
// makes this the fastest hash available for garbling, OT extension and
// PSI binning.
const fixedKeyMaterial = "secure-yannakaki" // 16 bytes

// fixedAES is π behind the cipher.Block interface, used for single-block
// hashing and on architectures without the batched AESENC kernel.
var fixedAES cipher.Block

func init() {
	var err error
	fixedAES, err = aes.NewCipher([]byte(fixedKeyMaterial))
	if err != nil {
		panic("prf: fixed-key AES init: " + err.Error())
	}
}

// Tweak-site constants. One fixed permutation π serves every MMO-style
// hash in the repository, so the 64-bit tweak space is partitioned by
// its top two bits into per-call-site domains; no two sites can ever
// issue the same (input, tweak) query to π. Within a site the low 62
// bits are owned by the caller:
//
//	SiteGC:  the half-gates garbler/evaluator; the tweak of a gate is
//	         its circuit slot's index times the tweaks one slot consumes,
//	         plus the gate's running count within the slot (AND gates
//	         consume two consecutive tweaks, ANDG one) — unique per gate
//	         half across the circuit. Kept at prefix 0 so garbled tables
//	         are bit-identical to the pre-partition scheme. Gate tweaks
//	         stay below 2^61, so the upper half of the site is free:
//	SitePay: the keyed payloads of a garbled circuit (gc.Builder's
//	         OutputPayloadIf), carved out of SiteGC at bit 61; the low bits
//	         carry the slot index times the payloads per slot plus the
//	         payload's index, unique per payload across the circuit. The
//	         pad is HashToWidthAES of the keying wire's 1-label.
//	SiteOT:  IKNP break-correlation hashing and random-OT pad
//	         derivation; the low bits carry the session-global OT
//	         instance index. The two pads of instance j (rows q_j and
//	         q_j ⊕ s) deliberately share one tweak — that pair is
//	         exactly the correlation-robustness game.
//	SitePSI: cuckoo/PSI hashing; the low bits carry the hash-function
//	         index (0..2) for bin assignment, 3 for the PSI's OPRF
//	         output hash and 4 for its hint-row derivation.
//	SiteKDF: wide-output expansion inside HashToWidthAES; the low bits
//	         carry the block counter of the expanded stream.
const (
	SiteGC  uint64 = 0 << 62
	SiteOT  uint64 = 1 << 62
	SitePSI uint64 = 2 << 62
	SiteKDF uint64 = 3 << 62
	SitePay        = SiteGC | 1<<61
)

// mmoScratch is the two-block workspace of one MMO evaluation: the
// doubled-and-tweaked input d and the cipher output e. Hash call sites
// declare it on the stack and launder its address through noescape once
// per call, so the slices handed to the cipher.Block interface (whose
// arguments the compiler must otherwise assume escape) never force a
// heap allocation.
type mmoScratch struct{ d, e Block }

// Double multiplies a 128-bit block by 2 in GF(2^128) (the "doubling"
// operation of the MMO construction).
func Double(x Block) Block {
	hi := binary.BigEndian.Uint64(x[0:8])
	lo := binary.BigEndian.Uint64(x[8:16])
	carry := hi >> 63
	hi = hi<<1 | lo>>63
	lo <<= 1
	if carry != 0 {
		lo ^= 0x87 // reduction polynomial x^128 + x^7 + x^2 + x + 1
	}
	var out Block
	binary.BigEndian.PutUint64(out[0:8], hi)
	binary.BigEndian.PutUint64(out[8:16], lo)
	return out
}

// HashBlock is the MMO-style hash H(X, t) = π(2X ⊕ t) ⊕ 2X ⊕ t with the
// tweak t encoded into the low 8 bytes. It is modeled as a circular
// correlation-robust hash, the assumption required by free-XOR and
// half-gates garbling and by the IKNP break-correlation step.
func HashBlock(x Block, tweak uint64) Block {
	var scratch mmoScratch
	s := (*mmoScratch)(noescape(unsafe.Pointer(&scratch)))
	s.d = Double(x)
	binary.LittleEndian.PutUint64(s.d[8:], binary.LittleEndian.Uint64(s.d[8:])^tweak)
	fixedAES.Encrypt(s.e[:], s.d[:])
	XORBlock(&s.e, s.e, s.d)
	return s.e
}

// HashBlocks is the batched form of HashBlock: it sets
//
//	dst[i] = HashBlock(src[i], tweak + uint64(i)·step)
//
// for every i, amortizing the doubling/tweak setup and bounds checks of
// the per-call path across a whole IKNP column or PSI bin sweep. step 1
// gives each block a fresh consecutive tweak (OT instance indices);
// step 0 hashes every block under one tweak (a PSI hash-function
// sweep). dst and src must have equal length and may be the same slice
// (each block is read before it is written); the call performs no heap
// allocation.
func HashBlocks(dst, src []Block, tweak, step uint64) {
	if len(dst) != len(src) {
		panic("prf: HashBlocks length mismatch")
	}
	t := tweak
	i := 0
	if hasAES8 {
		// Eight MMO inputs in flight per AESENC round: the batched kernel
		// hides the AES instruction latency that the one-block cipher.Block
		// path serializes on. db/eb stay on the stack — the kernel is
		// declared //go:noescape.
		var db, eb [8]Block
		for ; i+8 <= len(src); i += 8 {
			for k := range db {
				db[k] = Double(src[i+k])
				binary.LittleEndian.PutUint64(db[k][8:], binary.LittleEndian.Uint64(db[k][8:])^t)
				t += step
			}
			encryptBlocks8(&eb, &db)
			for k := range db {
				XORBlock(&dst[i+k], eb[k], db[k])
			}
		}
	}
	var scratch mmoScratch
	s := (*mmoScratch)(noescape(unsafe.Pointer(&scratch)))
	for ; i < len(src); i++ {
		s.d = Double(src[i])
		binary.LittleEndian.PutUint64(s.d[8:], binary.LittleEndian.Uint64(s.d[8:])^t)
		fixedAES.Encrypt(s.e[:], s.d[:])
		XORBlock(&dst[i], s.e, s.d)
		t += step
	}
}

// HashToWidthAES fills dst with the wide-output expansion of x under the
// caller's tweak: the first block is H(x, tweak), and block k ≥ 1 is
// H(h₀ ⊕ k, SiteKDF | k) — a KDF chain re-keyed by the first digest, so
// the caller's tweak space is consumed exactly once per call no matter
// how wide the output. It is the AES replacement for the SHA-256 →
// AES-CTR expansion of HashToWidth and performs no heap allocation.
func HashToWidthAES(dst []byte, x Block, tweak uint64) {
	h0 := HashBlock(x, tweak)
	n := copy(dst, h0[:])
	for k := uint64(1); n < len(dst); k++ {
		in := h0
		binary.LittleEndian.PutUint64(in[:8], binary.LittleEndian.Uint64(in[:8])^k)
		h := HashBlock(in, SiteKDF|k)
		n += copy(dst[n:], h[:])
	}
}

// XORBlock sets *dst = a ^ b, as two 64-bit words: the free gates of a
// garbled circuit are nothing but this.
func XORBlock(dst *Block, a, b Block) {
	binary.LittleEndian.PutUint64(dst[:8], binary.LittleEndian.Uint64(a[:8])^binary.LittleEndian.Uint64(b[:8]))
	binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(a[8:])^binary.LittleEndian.Uint64(b[8:]))
}

// XORBlockValue returns a ^ b.
func XORBlockValue(a, b Block) Block {
	var out Block
	XORBlock(&out, a, b)
	return out
}

// LSB returns the least significant (point-and-permute) bit of a label.
func (b Block) LSB() uint8 { return b[15] & 1 }

// BlockBytes views a block slice as its contiguous byte representation,
// letting callers copy whole garbled tables with a single memmove
// instead of one 16-byte copy per block. Blocks are fixed-size byte
// arrays, so the reinterpretation has no padding or endianness caveats.
func BlockBytes(bs []Block) []byte {
	if len(bs) == 0 {
		return nil
	}
	return unsafe.Slice(&bs[0][0], 16*len(bs))
}

// BlocksOf is the inverse view of BlockBytes: it reinterprets a byte
// slice whose length is a multiple of 16 as a slice of blocks, so
// batched hashing can write pads straight into a flat message buffer.
// The view aliases b; it does not copy.
func BlocksOf(b []byte) []Block {
	if len(b)%16 != 0 {
		panic("prf: BlocksOf length not a multiple of 16")
	}
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*Block)(unsafe.Pointer(&b[0])), len(b)/16)
}
