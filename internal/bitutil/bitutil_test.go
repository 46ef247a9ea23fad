package bitutil

import (
	"math/rand"
	"testing"
)

func naiveTranspose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			t.Set(c, r, m.Get(r, c))
		}
	}
	return t
}

func matricesEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			if a.Get(r, c) != b.Get(r, c) {
				return false
			}
		}
	}
	return true
}

func TestTransposeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][2]int{{1, 1}, {64, 64}, {128, 128}, {3, 200}, {200, 3}, {65, 129}, {128, 1000}, {127, 63}}
	for _, sh := range shapes {
		m := NewMatrix(sh[0], sh[1])
		for r := 0; r < m.Rows; r++ {
			for c := 0; c < m.Cols; c++ {
				m.Set(r, c, rng.Intn(2) == 1)
			}
		}
		if !matricesEqual(m.Transpose(), naiveTranspose(m)) {
			t.Fatalf("transpose mismatch for shape %v", sh)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMatrix(77, 190)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			m.Set(r, c, rng.Intn(2) == 1)
		}
	}
	if !matricesEqual(m, m.Transpose().Transpose()) {
		t.Fatal("transpose is not an involution")
	}
}

func TestMatrixRowBytesRoundTrip(t *testing.T) {
	m := NewMatrix(2, 70)
	rng := rand.New(rand.NewSource(3))
	for c := 0; c < 70; c++ {
		m.Set(0, c, rng.Intn(2) == 1)
	}
	m2 := NewMatrix(2, 70)
	m2.SetRowBytes(0, m.RowBytes(0))
	for c := 0; c < 70; c++ {
		if m.Get(0, c) != m2.Get(0, c) {
			t.Fatalf("col %d mismatch", c)
		}
	}
}

func BenchmarkTranspose128xM(b *testing.B) {
	m := NewMatrix(128, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < m.Rows; r++ {
		for w := range m.Row(r) {
			m.Row(r)[w] = rng.Uint64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Transpose()
	}
}
