package bitutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorGetSet(t *testing.T) {
	v := NewVector(130)
	v.Set(0, true)
	v.Set(64, true)
	v.Set(129, true)
	for i := 0; i < 130; i++ {
		want := i == 0 || i == 64 || i == 129
		if v.Get(i) != want {
			t.Fatalf("bit %d: got %v", i, v.Get(i))
		}
	}
	v.Set(64, false)
	if v.Get(64) {
		t.Fatal("clear failed")
	}
}

func TestVectorBytesRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewSource(seed))
		v := NewVector(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Intn(2) == 1)
		}
		w := VectorFromBytes(v.Bytes(), n)
		for i := 0; i < n; i++ {
			if v.Get(i) != w.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromBools(t *testing.T) {
	v := FromBools([]bool{true, false, true})
	if !v.Get(0) || v.Get(1) || !v.Get(2) || v.Len() != 3 {
		t.Fatal("FromBools mismatch")
	}
}

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
