package bitutil

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestTransposeByteIdenticalAcrossWorkers requires the parallel block
// transpose to produce exactly the serial result for ragged and aligned
// shapes alike.
func TestTransposeByteIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range [][2]int{{128, 64}, {128, 4096}, {65, 129}, {1, 1000}, {1000, 1}, {63, 63}} {
		rows, cols := dims[0], dims[1]
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rng.Intn(2) == 1)
			}
		}
		transposeAt := func(workers int) *Matrix {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			return m.Transpose()
		}
		ref := transposeAt(1)
		for _, workers := range []int{2, 4} {
			got := transposeAt(workers)
			for r := 0; r < ref.Rows; r++ {
				if !bytes.Equal(rowBytes(got, r), rowBytes(ref, r)) {
					t.Fatalf("%dx%d workers=%d: transpose row %d differs", rows, cols, workers, r)
				}
			}
		}
	}
}

// BenchmarkTransposeWorkers measures a whole κ×m transpose — the KKRT
// path's, and the work IKNP's tile kernel does block by block — at
// pinned worker counts.
func BenchmarkTransposeWorkers(b *testing.B) {
	const rows, cols = 128, 1 << 16
	m := NewMatrix(rows, cols)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for w := range row {
			row[w] = rng.Uint64()
		}
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			b.SetBytes(rows * cols / 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.Transpose()
			}
		})
	}
}
