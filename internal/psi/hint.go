package psi

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"secyan/internal/cuckoo"
	"secyan/internal/prf"
)

// This file is the hint of the per-bin OPPRF: a fixed-size table the
// sender programs so that it decodes, at each of his at most L real keys
// of the bin, to a value of his choice, and to noise everywhere else.
//
// A bin's hint is S = L + τ slots of τ + w bits. Key k selects the slots
// whose bit is set in row(k), an S-bit hash of k under the public
// cuckoo seed, and decodes to their XOR. Programming load ≤ L keys is a
// system of load equations in S unknowns over GF(2): bit-row Gaussian
// elimination, free slots drawn at random, word XORs only. A random
// load × S matrix lacks full row rank with probability < 2^(load − S) ≤
// 2^-τ, so over all B bins encoding fails with probability < 2^-σ; like
// a cuckoo failure it is surfaced as an error. The hint's size depends
// on (M, N) alone. The sender programs value ⊕ F_b(k) (oprf.go), so the
// receiver recovers value at a key they share and noise at any other;
// DESIGN.md §4 argues why the hint itself is uniform to her.

// value is one programmed or decoded OPPRF output: the τ-bit target t
// and the w-bit masked payload (or index) u, each in the low bits.
type value struct{ t, u uint64 }

func (v value) xor(o value) value { return value{v.t ^ o.t, v.u ^ o.u} }

// hintDims are the public dimensions of every bin's hint.
type hintDims struct {
	slots      int // S = L + τ
	tau, width int // bit widths of value.t and value.u
}

// hint returns the hint dimensions of a PSI whose bins carry w-bit
// payloads (ℓ for the direct protocol, the index width for §5.5).
func (pr Params) hint(w int) hintDims {
	return hintDims{slots: pr.L + pr.tau(), tau: pr.tau(), width: w}
}

func (h hintDims) tBytes() int    { return (h.tau + 7) / 8 }
func (h hintDims) slotBytes() int { return h.tBytes() + (h.width+7)/8 }
func (h hintDims) binBytes() int  { return h.slots * h.slotBytes() }
func (h hintDims) rowWords() int  { return (h.slots + 63) / 64 }

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
// oprfTweak the OPRF output.
const rowTweak = prf.SitePSI | 4

// hintCoder derives rows and encodes or decodes bins under one seed. It
// owns the scratch of one bin, so a PSI execution allocates it once.
type hintCoder struct {
	hintDims
	seed   prf.Seed
	rowBuf []byte
	rows   []uint64 // L rows of rowWords() words, reduced in place
	rhs    []value
	pivot  []int
	slots  []value
}

func newHintCoder(h hintDims, seed prf.Seed, maxLoad int) *hintCoder {
	rw := h.rowWords()
	return &hintCoder{hintDims: h, seed: seed,
		rowBuf: make([]byte, 8*rw),
		rows:   make([]uint64, (maxLoad+1)*rw),
		rhs:    make([]value, maxLoad),
		pivot:  make([]int, maxLoad),
		slots:  make([]value, h.slots)}
}

// row writes row(key) into dst: S hash bits of the key under the seed.
func (c *hintCoder) row(dst []uint64, key uint64) {
	prf.HashToWidthAES(c.rowBuf, cuckoo.KeyBlock(c.seed, key), rowTweak)
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(c.rowBuf[8*i:])
	}
	if tail := len(c.slots) % 64; tail != 0 { // slot bits in the last word
		dst[len(dst)-1] &= lowBits(tail)
	}
}

// encode programs one bin — decode(keys[i]) = vals[i] — and writes its
// slots to dst (binBytes() long). Free slots are drawn from g. Keys must
// be distinct; equal keys give equal rows and fail like any other rank
// deficiency.
func (c *hintCoder) encode(dst []byte, keys []uint64, vals []value, g *prf.PRG) error {
	rw := c.rowWords()
	for i, k := range keys {
		ri := c.rows[i*rw : (i+1)*rw]
		c.row(ri, k)
		c.rhs[i] = vals[i]
		for j := 0; j < i; j++ {
			if ri[c.pivot[j]/64]>>(uint(c.pivot[j])%64)&1 == 1 {
				c.addRow(i, j)
			}
		}
		p := -1
		for w, x := range ri {
			if x != 0 {
				p = 64*w + bits.TrailingZeros64(x)
				break
			}
		}
		if p < 0 {
			return fmt.Errorf("psi: hint system of %d keys in %d slots is rank deficient", len(keys), c.hintDims.slots)
		}
		c.pivot[i] = p
		for j := 0; j < i; j++ {
			if c.rows[j*rw+p/64]>>(uint(p)%64)&1 == 1 {
				c.addRow(j, i)
			}
		}
	}
	for s := range c.slots {
		c.slots[s] = c.mask(value{g.Uint64(), g.Uint64()})
	}
	// Reduced echelon form: a row's only pivot column is its own, so the
	// other slots it selects are all free and already drawn.
	for i := range keys {
		v := c.rhs[i]
		for w, x := range c.rows[i*rw : (i+1)*rw] {
			for ; x != 0; x &= x - 1 {
				if s := 64*w + bits.TrailingZeros64(x); s != c.pivot[i] {
					v = v.xor(c.slots[s])
				}
			}
		}
		c.slots[c.pivot[i]] = v
	}
	sb := c.slotBytes()
	for s, v := range c.slots {
		c.putSlot(dst[s*sb:], v)
	}
	return nil
}

// addRow adds equation src to equation dst.
func (c *hintCoder) addRow(dst, src int) {
	rw := c.rowWords()
	d, s := c.rows[dst*rw:(dst+1)*rw], c.rows[src*rw:(src+1)*rw]
	for w := range d {
		d[w] ^= s[w]
	}
	c.rhs[dst] = c.rhs[dst].xor(c.rhs[src])
}

// decode returns what one bin's hint (binBytes() long) decodes to at key.
func (c *hintCoder) decode(bin []byte, key uint64) value {
	row := c.rows[:c.rowWords()]
	c.row(row, key)
	sb := c.slotBytes()
	var v value
	for w, x := range row {
		for ; x != 0; x &= x - 1 {
			s := 64*w + bits.TrailingZeros64(x)
			v = v.xor(c.slot(bin[s*sb:]))
		}
	}
	return v
}
