package psi

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"secyan/internal/cuckoo"
	"secyan/internal/prf"
)

// This file is the hint of the OPPRF: one random-band oblivious
// key-value store (OKVS; Bienstock, Patranabis, Wang, Xiao, Yeo, USENIX
// Security 2023) over every key the sender programs in a PSI. It decodes,
// at each of his n ≤ 3N composed keys, to a value of his choice, and to
// noise everywhere else.
//
// The hint is m = n + ⌈n/okvsInvEps⌉ + W slots of τ + w bits, where W =
// bandBits. Key k hashes to a start s ∈ [0, m − W] and a W-bit band; it
// selects the slots s + r for the set bits r of the band and decodes to
// their XOR. A composed key already determines its bin, so the key alone
// is the store's key. Programming n keys is a banded system of n
// equations in m unknowns over GF(2): the rows, sorted by start, are
// eliminated with shift-aligned two-word XORs and the free slots drawn at
// random. Encoding fails when the system lacks full row rank;
// TestOKVSFailureRate fits that rate and pins it below 2^-σ at n = 2^23,
// and like a cuckoo failure it is surfaced as an error. The hint's size
// depends on (M, N) alone. The sender programs (t_b, u′) ⊕ F_b(k) at
// each key k of bin b (oprf.go), so the receiver recovers them at a key
// they share and noise at any other; DESIGN.md §4 argues why the hint itself is uniform to her.

// value is one programmed or decoded OPPRF output: the τ-bit target t
// and the w-bit masked payload (or index) u, each in the low bits.
type value struct{ t, u uint64 }

func (v value) xor(o value) value { return value{v.t ^ o.t, v.u ^ o.u} }

const (
	// bandBits is W, the width of a key's band: two words.
	bandBits = 128
	// okvsInvEps is 1/ε: a hint has ⌈(1 + ε)·n⌉ + W slots for n keys.
	// ε = 0.25; at 0.2 the failure fit (TestOKVSFailureRate) lands too
	// close to 2^-σ at n = 2^23 to ship (DESIGN.md §4).
	okvsInvEps = 4
)

// okvsSlots returns m for n keys and a band of the given width.
func okvsSlots(n, w int) int { return n + (n+okvsInvEps-1)/okvsInvEps + w }

// hintDims are the public dimensions of a PSI's hint.
type hintDims struct {
	slots      int // m
	band       int // W; below bandBits only in the failure-rate test
	tau, width int // bit widths of value.t and value.u
}

// hint returns the hint dimensions of a PSI whose bins carry w-bit
// payloads (ℓ for the direct protocol, the index width for §5.5): one
// store for the sender's 3N composed keys.
func (pr Params) hint(w int) hintDims {
	return hintDims{slots: okvsSlots(cuckoo.NumHashes*pr.N, bandBits), band: bandBits, tau: pr.tau(), width: w}
}

func (h hintDims) tBytes() int    { return (h.tau + 7) / 8 }
func (h hintDims) slotBytes() int { return h.tBytes() + (h.width+7)/8 }
func (h hintDims) bytes() int     { return h.slots * h.slotBytes() }

// mask reduces v to the hint's value widths.
func (h hintDims) mask(v value) value {
	return value{v.t & lowBits(h.tau), v.u & lowBits(h.width)}
}

func lowBits(n int) uint64 { return ^uint64(0) >> uint(64-n) }

// putSlot and slot move one value to and from its wire form: t then u,
// little-endian, each in the fewest whole bytes.
func (h hintDims) putSlot(dst []byte, v value) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v.t)
	n := copy(dst[:h.tBytes()], w[:])
	binary.LittleEndian.PutUint64(w[:], v.u)
	copy(dst[n:h.slotBytes()], w[:])
}

func (h hintDims) slot(src []byte) value {
	var t, u [8]byte
	copy(t[:], src[:h.tBytes()])
	copy(u[:], src[h.tBytes():h.slotBytes()])
	return value{binary.LittleEndian.Uint64(t[:]), binary.LittleEndian.Uint64(u[:])}
}

// rowTweak is the hint-row derivation's tweak in the PSI domain of the
// fixed-key permutation; 0..2 are the cuckoo hash functions and
// codeTweak the OPRF's code (oprf.go).
const rowTweak = prf.SitePSI | 4

// bandWords is a key's row of the store: bit r of the two words selects
// slot start + r.
type bandWords [2]uint64

// shr returns b shifted down by d < bandBits bits.
func (b bandWords) shr(d int) bandWords {
	if d >= 64 {
		return bandWords{b[1] >> uint(d-64), 0}
	}
	return bandWords{b[0]>>uint(d) | b[1]<<uint(64-d), b[1] >> uint(d)}
}

// row returns the start and the band of key under seed: one
// HashToWidthAES call, two words of band and one of start.
func (h hintDims) row(seed prf.Seed, key uint64) (int, bandWords) {
	var d [24]byte
	prf.HashToWidthAES(d[:], cuckoo.KeyBlock(seed, key), rowTweak)
	return h.rowOf(&d)
}

// rowOf cuts a row out of 24 hash bytes.
func (h hintDims) rowOf(d *[24]byte) (int, bandWords) {
	b := bandWords{binary.LittleEndian.Uint64(d[:8]), binary.LittleEndian.Uint64(d[8:16])}
	if h.band < 64 {
		b = bandWords{b[0] & lowBits(h.band), 0}
	} else if h.band < bandBits {
		b[1] &= lowBits(h.band - 64)
	}
	return int(binary.LittleEndian.Uint64(d[16:]) % uint64(h.slots-h.band+1)), b
}

// equation is one key's row during encoding, with its right-hand side
// and, once eliminated, the offset of its pivot in the band.
type equation struct {
	band         bandWords
	rhs          value
	start, pivot int32
}

// equation returns the equation that programs key to v.
func (h hintDims) equation(seed prf.Seed, key uint64, v value) equation {
	start, b := h.row(seed, key)
	return equation{band: b, rhs: v, start: int32(start)}
}

// encode programs the store so that each equation's key decodes to its
// value, and writes its slots to dst (bytes() long). Free slots are drawn
// from g. It reorders eqs. Keys must be distinct; equal keys give equal
// rows and fail like any other rank deficiency.
func (h hintDims) encode(dst []byte, eqs []equation, g *prf.PRG) error {
	if err := h.eliminate(eqs); err != nil {
		return err
	}
	// Back substitution: a row's other slots are free or pivots of later
	// rows, so the rows in reverse order each fix their pivot last.
	slots := make([]value, h.slots)
	for s := range slots {
		slots[s] = h.mask(value{g.Uint64(), g.Uint64()})
	}
	for i := len(eqs) - 1; i >= 0; i-- {
		e := &eqs[i]
		v, at := e.rhs, slots[e.start:]
		for w, x := range e.band {
			for ; x != 0; x &= x - 1 {
				if r := int32(64*w + bits.TrailingZeros64(x)); r != e.pivot {
					v = v.xor(at[r])
				}
			}
		}
		at[e.pivot] = v
	}
	sb := h.slotBytes()
	for s, v := range slots {
		h.putSlot(dst[s*sb:], v)
	}
	return nil
}

// eliminate sorts the equations by start in place (a counting sort) and
// reduces them to echelon form, each with its own pivot. It fails if the
// rows lack full rank.
func (h hintDims) eliminate(eqs []equation) error {
	// first[s] is where the rows of start s begin once sorted, next[s]
	// where the next one goes; each swap puts one row in its place.
	first := make([]int32, h.slots-h.band+2)
	for i := range eqs {
		first[eqs[i].start+1]++
	}
	for s := 1; s < len(first); s++ {
		first[s] += first[s-1]
	}
	next := append([]int32(nil), first...)
	for s := range len(first) - 1 {
		for i := next[s]; i < first[s+1]; i = next[s] {
			t := eqs[i].start
			j := next[t]
			next[t]++
			eqs[i], eqs[j] = eqs[j], eqs[i]
		}
	}
	// A later row starts at or after this one, so a row whose band covers
	// this pivot covers everything of this row from the pivot on, and the
	// XOR stays inside its band.
	for i := range eqs {
		e := &eqs[i]
		switch {
		case e.band[0] != 0:
			e.pivot = int32(bits.TrailingZeros64(e.band[0]))
		case e.band[1] != 0:
			e.pivot = int32(64 + bits.TrailingZeros64(e.band[1]))
		default:
			return fmt.Errorf("psi: hint system of %d keys in %d slots is rank deficient", len(eqs), h.slots)
		}
		p := e.start + e.pivot
		for j := i + 1; j < len(eqs) && eqs[j].start <= p; j++ {
			f := &eqs[j]
			if o := p - f.start; f.band[o/64]>>uint(o%64)&1 == 1 {
				d := e.band.shr(int(f.start - e.start))
				f.band[0] ^= d[0]
				f.band[1] ^= d[1]
				f.rhs = f.rhs.xor(e.rhs)
			}
		}
	}
	return nil
}

// decode returns what the store (bytes() long) decodes to at key.
func (h hintDims) decode(hint []byte, seed prf.Seed, key uint64) value {
	start, b := h.row(seed, key)
	sb := h.slotBytes()
	var v value
	for w, x := range b {
		for ; x != 0; x &= x - 1 {
			s := start + 64*w + bits.TrailingZeros64(x)
			v = v.xor(h.slot(hint[s*sb:]))
		}
	}
	return v
}
