// Package bitutil provides the bit-matrix transpose the OT extensions
// need, where a w×m bit matrix held column-wise by one party must be
// consumed row-wise. Both extensions, IKNP and KKRT, call the 64×64
// block kernel Transpose64 directly and build no matrix; Matrix and its
// whole-matrix Transpose are the reference formulation the tiled kernel
// is tested against.
package bitutil

import (
	"encoding/binary"

	"secyan/internal/parallel"
)

// Transpose64 transposes a 64×64 bit matrix held as 64 words in place.
// It is the little-endian adaptation of the recursive delta-swap from
// "Hacker's Delight" §7-3: word k is row k and bit b is column b.
// Matrix.Transpose is this kernel over every block; the OT extensions'
// block kernel (package ot) calls it directly.
func Transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := ((a[k] >> j) ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
		j >>= 1
		m ^= m << j
	}
}

// Matrix is a bit matrix stored row-major with each row padded to a
// multiple of 64 bits.
type Matrix struct {
	Rows, Cols int
	rowWords   int
	bits       []uint64
}

// NewMatrix allocates an all-zero rows×cols bit matrix.
func NewMatrix(rows, cols int) *Matrix {
	rw := (cols + 63) / 64
	return &Matrix{Rows: rows, Cols: cols, rowWords: rw, bits: make([]uint64, rows*rw)}
}

// Get returns the bit at (r, c).
func (m *Matrix) Get(r, c int) bool {
	return m.bits[r*m.rowWords+c/64]>>(uint(c)%64)&1 == 1
}

// Set assigns the bit at (r, c).
func (m *Matrix) Set(r, c int, b bool) {
	idx := r*m.rowWords + c/64
	if b {
		m.bits[idx] |= 1 << (uint(c) % 64)
	} else {
		m.bits[idx] &^= 1 << (uint(c) % 64)
	}
}

// Row returns the packed words of row r (read-only view).
func (m *Matrix) Row(r int) []uint64 {
	return m.bits[r*m.rowWords : (r+1)*m.rowWords]
}

// SetRowBytes fills row r from little-endian bytes, eight at a time.
func (m *Matrix) SetRowBytes(r int, data []byte) {
	row := m.Row(r)
	if len(data) > m.rowWords*8 {
		data = data[:m.rowWords*8]
	}
	w := 0
	for ; (w+1)*8 <= len(data); w++ {
		row[w] = binary.LittleEndian.Uint64(data[w*8:])
	}
	if w < m.rowWords {
		var last uint64
		for i := w * 8; i < len(data); i++ {
			last |= uint64(data[i]) << (8 * (uint(i) % 8))
		}
		row[w] = last
		for w++; w < m.rowWords; w++ {
			row[w] = 0
		}
	}
}

// RowBytesInto serializes row r into dst, which must hold at least
// ceil(cols/8) bytes. It allocates nothing, so per-row loops can reuse a
// stack buffer.
func (m *Matrix) RowBytesInto(dst []byte, r int) {
	row := m.Row(r)
	n := (m.Cols + 7) / 8
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], row[i/8])
	}
	for ; i < n; i++ {
		dst[i] = byte(row[i/8] >> (8 * (uint(i) % 8)))
	}
}

// Transpose returns the cols×rows transpose of m, processed in 64×64
// blocks for cache efficiency. Padding bits are zero.
//
// Column blocks of m are independent — block cb produces exactly the
// transpose rows cb..cb+63 — so they are farmed out to the worker pool.
// Each index writes a disjoint region of the output, which keeps the
// result byte-identical at every worker count.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	cbBlocks := (m.Cols + 63) / 64
	parallel.For(cbBlocks, 2, func(lo, hi int) {
		var blk [64]uint64
		for cbi := lo; cbi < hi; cbi++ {
			cb := cbi * 64
			for rb := 0; rb < m.Rows; rb += 64 {
				// Load a 64×64 block; rows beyond bounds are zero.
				for i := 0; i < 64; i++ {
					r := rb + i
					if r < m.Rows && cb/64 < m.rowWords {
						blk[i] = m.bits[r*m.rowWords+cb/64]
					} else {
						blk[i] = 0
					}
				}
				Transpose64(&blk)
				// blk is now column-major for the original block: blk[j] holds
				// original column cb+j across rows rb..rb+63, i.e. row cb+j of
				// the transpose at word rb/64.
				for j := 0; j < 64; j++ {
					c := cb + j
					if c < m.Cols && rb/64 < t.rowWords {
						t.bits[c*t.rowWords+rb/64] = blk[j]
					}
				}
			}
		}
	})
	// Clear slack bits in the transpose (original row padding).
	if t.Cols%64 != 0 {
		mask := (uint64(1) << (uint(t.Cols) % 64)) - 1
		for r := 0; r < t.Rows; r++ {
			row := t.Row(r)
			row[len(row)-1] &= mask
		}
	}
	return t
}
