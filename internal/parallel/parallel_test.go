package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// withWorkers pins the worker count for the duration of the test.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 1000} {
			for _, grain := range []int{1, 8, 100} {
				withWorkers(t, workers)
				hits := make([]int32, n)
				For(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", workers, n, grain, i, h)
					}
				}
			}
		}
	}
}

func TestForChunkBoundariesIndependentOfWorkerCount(t *testing.T) {
	// Kernels rely on chunk boundaries being a pure function of
	// (n, grain, Workers()) so that per-chunk state never changes results.
	// The output produced index-by-index must match serial regardless.
	const n = 513
	want := make([]int, n)
	withWorkers(t, 1)
	For(n, 7, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			want[i] = i * i
		}
	})
	for _, workers := range []int{2, 4, 16} {
		withWorkers(t, workers)
		got := make([]int, n)
		For(n, 7, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				got[i] = i * i
			}
		})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: index %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForSerialRunsOnCallingGoroutine(t *testing.T) {
	withWorkers(t, 1)
	// A data race here (no synchronization) would be flagged by -race if
	// For used goroutines with one worker.
	x := 0
	For(100, 1, func(lo, hi int) { x += hi - lo })
	if x != 100 {
		t.Fatalf("x = %d, want 100", x)
	}
}
