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

// fixedAES is π behind the cipher.Block interface: the per-block path
// (mmoRef) on machines without the fused AES-NI kernel.
var fixedAES cipher.Block

// fixedRoundKeys is the expanded schedule of π, consumed by the fused
// MMO kernel.
var fixedRoundKeys = expandAESKey128([16]byte([]byte(fixedKeyMaterial)))

func init() {
	var err error
	fixedAES, err = aes.NewCipher([]byte(fixedKeyMaterial))
	if err != nil {
		// The key is a 16-byte constant; aes.NewCipher cannot reject it.
		panic("prf: fixed-key AES init: " + err.Error())
	}
}

// Tweak-site constants. One fixed permutation π serves every MMO-style
// hash in the repository. A tweak is 128 bits: a low word, whose 64-bit
// space is partitioned by its top two bits into per-call-site domains,
// and a high word, the stream word (Word). No two sites can ever issue
// the same (input, tweak) query to π. Within a site the low 62 bits are
// owned by the caller:
//
//	SiteGC:  the garbler/evaluator; the tweak of a gate is
//	         its circuit slot's index times the tweaks one slot consumes,
//	         plus the gate's running count within the slot (an AND gate
//	         consumes three consecutive tweaks, an ANDG one) — unique per
//	         hash across the circuit. Kept at prefix 0 so garbled tables
//	         are bit-identical to the pre-partition scheme. Gate tweaks
//	         stay below 2^61, so the upper half of the site is free:
//	SitePay: the payloads of a garbled circuit (gc.Builder's
//	         OutputPayloadIf and OutputSelect), carved out of SiteGC at
//	         bit 61; the low bits carry the slot index times the payloads
//	         per slot plus the payload's index, unique per payload across
//	         the circuit. The pad is HashToWidthAES of the keying wire's
//	         1-label, and a select's second pad that of its 0-label under
//	         the same tweak, as a half gate hashes both labels of a wire.
//	SiteOT:  IKNP break-correlation hashing and random-OT pad
//	         derivation; the low bits carry the stream's OT instance
//	         index. The two pads of instance j (rows q_j and q_j ⊕ s)
//	         deliberately share one tweak — that pair is exactly the
//	         correlation-robustness game.
//	SitePSI: cuckoo/PSI hashing; the low bits carry the hash-function
//	         index (0..2) for bin assignment, 4 for the PSI's hint-row
//	         derivation and 5 for its KKRT code word C(x) (the first
//	         block of a HashToWidthAES expansion). 3 is retired: it
//	         keyed the output hash of the IKNP-pad OPRF the KKRT one
//	         replaced, whose output is now SHA-256 (prf.HashInto) over
//	         the whole 512-bit row, outside π.
//	SiteKDF: wide-output expansion inside HashToWidthAES; the low bits
//	         carry the block counter of the expanded stream.
//
// The high word is the stream word of the hashes whose inputs are
// correlated under a secret that the streams of one session share: the
// OT pads (SiteOT) and the gate and payload hashes (SiteGC, SitePay),
// all keyed by an extension's Δ. Each stream counts its OT instances and
// label batches from 0, so the word — the stream's id — is what keeps
// two streams' queries apart. Every other site, and every hash outside
// a session, uses word 0, under which a hash equals the 64-bit-tweak
// hash it was before the word existed.
const (
	SiteGC  uint64 = 0 << 62
	SiteOT  uint64 = 1 << 62
	SitePSI uint64 = 2 << 62
	SiteKDF uint64 = 3 << 62
	SitePay        = SiteGC | 1<<61
)

// mmoScratch is the two-block workspace of one per-block MMO
// evaluation: the doubled-and-tweaked input d and the cipher output e.
// The per-block path declares it on the stack and launders its address
// through noescape once per call, so the slices handed to the
// cipher.Block interface (whose arguments the compiler must otherwise
// assume escape) never force a heap allocation.
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

// Word is the high 64 bits of a 128-bit MMO tweak: the stream word (see
// the site table above). Its methods are the hash kernels; the
// package-level HashBlock, HashBlocks and HashToWidthAES are word 0.
type Word uint64

// tweak XORs the 128-bit tweak (w, lo) into d: lo into the low 8 bytes,
// the word into the high 8.
func (w Word) tweak(d *Block, lo uint64) {
	binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])^lo)
	binary.LittleEndian.PutUint64(d[:8], binary.LittleEndian.Uint64(d[:8])^uint64(w))
}

// mmoRef is the per-block MMO path: dst[i] = π(d) ⊕ d, d = 2·src[i] ⊕
// (w, lo[i]), one crypto/aes call per block. It runs where the fused
// kernel cannot (no AES-NI), and the tests pin the kernel to it.
func (w Word) mmoRef(dst, src []Block, lo []uint64) {
	var scratch mmoScratch
	s := (*mmoScratch)(noescape(unsafe.Pointer(&scratch)))
	for i := range src {
		s.d = Double(src[i])
		w.tweak(&s.d, lo[i])
		fixedAES.Encrypt(s.e[:], s.d[:])
		XORBlock(&dst[i], s.e, s.d)
	}
}

// lanes hashes the first m of the eight blocks b in place, block i under
// the low tweak lo[i]: one pass of the fused kernel, whose spare lanes
// hash whatever they hold (eight lanes cost about what one does, as the
// AES rounds pipeline), or the per-block path on m blocks.
func (w Word) lanes(b *[8]Block, lo *[8]uint64, m int) {
	if hasAES8 {
		mmoBlocks(&b[0], &b[0], &lo[0], w, 8)
		return
	}
	w.mmoRef(b[:m], b[:m], lo[:m])
}

// HashTweaks is the MMO hash under per-block tweaks: it sets
//
//	dst[i] = w.HashBlock(src[i], tweaks[i])
//
// for every i. Whole groups of eight run in place through the fused
// kernel and a last partial group through its stack lanes, so a caller
// that packs several hashes into one call — a garbled AND's six, or
// three at the evaluator — pays one kernel pass per eight blocks. dst and
// src may be the same slice; the call performs no heap allocation.
func (w Word) HashTweaks(dst, src []Block, tweaks []uint64) {
	if len(dst) != len(src) || len(tweaks) != len(src) {
		// All three are the caller's own buffers, sized by its batch,
		// not by a peer message.
		panic("prf: HashTweaks length mismatch")
	}
	if !hasAES8 {
		w.mmoRef(dst, src, tweaks)
		return
	}
	n := len(src) &^ 7
	if n > 0 {
		mmoBlocks(&dst[0], &src[0], &tweaks[0], w, n)
	}
	if m := len(src) - n; m > 0 {
		var b [8]Block
		var lo [8]uint64
		copy(b[:], src[n:])
		copy(lo[:], tweaks[n:])
		w.lanes(&b, &lo, m)
		copy(dst[n:], b[:m])
	}
}

// HashBlock is the MMO-style hash H(X, t) = π(2X ⊕ t) ⊕ 2X ⊕ t for the
// 128-bit tweak t = (w, tweak): GKWY20's tweakable
// circular-correlation-robust form, the assumption required by free-XOR
// and half-gates garbling and by the IKNP break-correlation step.
func (w Word) HashBlock(x Block, tweak uint64) Block {
	b := [8]Block{x}
	lo := [8]uint64{tweak}
	w.lanes(&b, &lo, 1)
	return b[0]
}

// HashBlock is Word(0).HashBlock.
func HashBlock(x Block, tweak uint64) Block { return Word(0).HashBlock(x, tweak) }

// hashChunk is how many tweaks HashBlocks lays out per kernel call.
const hashChunk = 64

// HashBlocks is the batched form of HashBlock: it sets
//
//	dst[i] = w.HashBlock(src[i], tweak + uint64(i)·step)
//
// for every i, through HashTweaks a chunk at a time: an IKNP column or a
// PSI bin sweep runs at the fused kernel's speed. step 1 gives each block
// a fresh consecutive tweak (OT instance indices); step 0 hashes every
// block under one tweak (a PSI hash-function sweep). dst and src must
// have equal length and may be the same slice (each block is read before
// it is written); the call performs no heap allocation.
func (w Word) HashBlocks(dst, src []Block, tweak, step uint64) {
	if len(dst) != len(src) {
		// Both are the caller's own buffers, sized by its batch, not by
		// a peer message.
		panic("prf: HashBlocks length mismatch")
	}
	var lo [hashChunk]uint64
	for len(src) > 0 {
		n := min(len(src), hashChunk)
		for i := range n {
			lo[i] = tweak
			tweak += step
		}
		w.HashTweaks(dst[:n], src[:n], lo[:n])
		dst, src = dst[n:], src[n:]
	}
}

// HashBlocks is Word(0).HashBlocks.
func HashBlocks(dst, src []Block, tweak, step uint64) { Word(0).HashBlocks(dst, src, tweak, step) }

// HashToWidthAES fills dst with the wide-output expansion of x under the
// caller's tweak: the first block is w.HashBlock(x, tweak), and block
// k ≥ 1 is w.HashBlock(h₀ ⊕ k, SiteKDF | k) — a KDF chain re-keyed by
// the first digest, so the caller's tweak space is consumed exactly once
// per call no matter how wide the output. The blocks after the first
// hash eight to a kernel pass. It performs no heap allocation.
func (w Word) HashToWidthAES(dst []byte, x Block, tweak uint64) {
	h0 := w.HashBlock(x, tweak)
	n := copy(dst, h0[:])
	var b [8]Block
	var lo [8]uint64
	for k := uint64(1); n < len(dst); {
		m := 0
		for ; m < len(b) && n+16*m < len(dst); m++ {
			b[m] = h0
			binary.LittleEndian.PutUint64(b[m][:8], binary.LittleEndian.Uint64(h0[:8])^k)
			lo[m] = SiteKDF | k
			k++
		}
		w.lanes(&b, &lo, m)
		n += copy(dst[n:], BlockBytes(b[:m]))
	}
}

// HashToWidthAES is Word(0).HashToWidthAES.
func HashToWidthAES(dst []byte, x Block, tweak uint64) { Word(0).HashToWidthAES(dst, x, tweak) }

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
		// Callers view their own buffers or slice a peer message at
		// offsets of whole blocks after checking its length, so the
		// length a peer chooses never reaches this check.
		panic("prf: BlocksOf length not a multiple of 16")
	}
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*Block)(unsafe.Pointer(&b[0])), len(b)/16)
}
