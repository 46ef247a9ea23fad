package bitutil

import (
	"bytes"
	"testing"
)

// FuzzTranspose checks the involution property transpose(transpose(M)) == M
// for arbitrary dimensions and bit patterns, including the ragged shapes
// where rows or cols are not multiples of the 64-bit block size.
func FuzzTranspose(f *testing.F) {
	f.Add(uint16(128), uint16(64), []byte{0xff, 0x01})
	f.Add(uint16(1), uint16(1), []byte{0x01})
	f.Add(uint16(65), uint16(63), []byte{0xaa, 0x55, 0x13})
	f.Add(uint16(3), uint16(200), []byte{})
	f.Fuzz(func(t *testing.T, rows, cols uint16, data []byte) {
		r := int(rows)%300 + 1
		c := int(cols)%300 + 1
		m := NewMatrix(r, c)
		if len(data) > 0 {
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					b := data[(i*c+j)%len(data)]
					m.Set(i, j, b>>(uint(i+j)%8)&1 == 1)
				}
			}
		}
		tt := m.Transpose()
		if tt.Rows != c || tt.Cols != r {
			t.Fatalf("transpose dims = %dx%d, want %dx%d", tt.Rows, tt.Cols, c, r)
		}
		back := tt.Transpose()
		if back.Rows != r || back.Cols != c {
			t.Fatalf("double transpose dims = %dx%d, want %dx%d", back.Rows, back.Cols, r, c)
		}
		for i := 0; i < r; i++ {
			if !bytes.Equal(rowBytes(back, i), rowBytes(m, i)) {
				t.Fatalf("row %d differs after double transpose", i)
			}
		}
		// Spot-check the transpose itself, not just the involution.
		for i := 0; i < r; i += 17 {
			for j := 0; j < c; j += 13 {
				if m.Get(i, j) != tt.Get(j, i) {
					t.Fatalf("m[%d,%d] != t[%d,%d]", i, j, j, i)
				}
			}
		}
	})
}
