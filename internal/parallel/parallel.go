// Package parallel provides the bounded worker pool behind every
// CPU-heavy crypto kernel in this repository: IKNP column expansion and
// per-OT padding, half-gates garbling and evaluation, and the bit-matrix
// transpose.
//
// The design constraint is transcript determinism: a protocol run must
// produce byte-for-byte identical wire messages at any worker count, so
// that parallelism never changes the measured communication numbers or
// the reproducibility of results. For guarantees this by construction —
// chunk boundaries depend only on (n, grain), never on worker count or
// scheduling, and kernels written against it assign each index a
// disjoint output region. Worker count only decides how many goroutines
// drain the chunk queue.
//
// The worker count is runtime.GOMAXPROCS(0): the Go runtime's own
// deployment knob (the GOMAXPROCS environment variable, or
// runtime.GOMAXPROCS in a test) is the only one.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"secyan/internal/obs"
)

// Worker-pool metrics. Busy time is the sum of per-chunk kernel time
// across all workers; span time is workers × wall time of each For
// call, so busy/span is the pool's utilization. All reads of the clock
// are gated on obs.Enabled, keeping the disabled path free.
var (
	mForCalls = obs.NewCounter("secyan_parallel_for_total", "parallel.For invocations.")
	mChunks   = obs.NewCounter("secyan_parallel_chunks_total", "Work chunks executed by the pool (serial fast-path counts one).")
	mBusyNs   = obs.NewCounter("secyan_parallel_busy_ns_total", "Nanoseconds workers spent inside kernels.")
	mSpanNs   = obs.NewCounter("secyan_parallel_span_ns_total", "Workers times wall nanoseconds of each For call; busy/span is pool occupancy.")
	mWorkers  = obs.NewGauge("secyan_parallel_workers", "Worker count of the most recent parallel For call.")
)

// Workers reports the worker count For will use.
func Workers() int { return runtime.GOMAXPROCS(0) }

// For executes fn over the index range [0, n), partitioned into
// contiguous chunks of at least grain indices. Chunk boundaries are a
// pure function of (n, grain, Workers()); fn(lo, hi) covers [lo, hi) and
// the union of all calls covers [0, n) exactly once. For returns when
// every chunk has completed.
//
// fn must be safe to call concurrently from multiple goroutines and must
// write only to state owned by its index range. With one worker (or when
// the range fits a single chunk) fn runs on the calling goroutine with
// no synchronization overhead.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	measured := obs.Enabled()
	var start time.Time
	if measured {
		mForCalls.Inc()
		start = time.Now()
	}
	workers := Workers()
	if workers == 1 || n <= grain {
		fn(0, n)
		if measured {
			d := time.Since(start).Nanoseconds()
			mChunks.Inc()
			mBusyNs.Add(d)
			mSpanNs.Add(d)
			mWorkers.Set(1)
		}
		return
	}
	// Aim for a few chunks per worker for load balance, but never chunks
	// smaller than grain (kernel work below grain is cheaper serial than
	// the handoff).
	size := (n + 4*workers - 1) / (4 * workers)
	if size < grain {
		size = grain
	}
	chunks := (n + size - 1) / size
	if chunks == 1 {
		fn(0, n)
		if measured {
			d := time.Since(start).Nanoseconds()
			mChunks.Inc()
			mBusyNs.Add(d)
			mSpanNs.Add(d)
			mWorkers.Set(1)
		}
		return
	}
	if workers > chunks {
		workers = chunks
	}
	var next atomic.Int64
	var busy atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1) - 1)
				if c >= chunks {
					return
				}
				lo := c * size
				hi := lo + size
				if hi > n {
					hi = n
				}
				if measured {
					t0 := time.Now()
					fn(lo, hi)
					busy.Add(time.Since(t0).Nanoseconds())
				} else {
					fn(lo, hi)
				}
			}
		}()
	}
	wg.Wait()
	if measured {
		mChunks.Add(int64(chunks))
		mBusyNs.Add(busy.Load())
		mSpanNs.Add(int64(workers) * time.Since(start).Nanoseconds())
		mWorkers.Set(int64(workers))
	}
}
