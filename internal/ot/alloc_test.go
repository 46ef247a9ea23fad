package ot

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"secyan/internal/transport"
)

// makeBatch builds deterministic message pairs and choices for one batch.
func makeBatch(seed int64, m, msgLen int) ([][2][]byte, []bool) {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2][]byte, m)
	choices := make([]bool, m)
	for j := range pairs {
		pairs[j][0] = make([]byte, msgLen)
		pairs[j][1] = make([]byte, msgLen)
		rng.Read(pairs[j][0])
		rng.Read(pairs[j][1])
		choices[j] = rng.Intn(2) == 1
	}
	return pairs, choices
}

// extAllocsPerRun measures the allocations of one full Send/Receive round
// trip (both endpoints; AllocsPerRun counts process-wide mallocs).
func extAllocsPerRun(t *testing.T, snd *Sender, rcv *Receiver, m, msgLen int) float64 {
	t.Helper()
	pairs, choices := makeBatch(int64(m), m, msgLen)
	return testing.AllocsPerRun(10, func() {
		errCh := make(chan error, 1)
		go func() { errCh <- snd.Send(pairs) }()
		if _, err := rcv.Receive(choices, msgLen); err != nil {
			t.Errorf("Receive: %v", err)
		}
		if err := <-errCh; err != nil {
			t.Errorf("Send: %v", err)
		}
	})
}

// TestExtOTAllocsDoNotScaleWithBatchSize pins the satellite optimization:
// pad derivation and output buffers no longer allocate per OT instance,
// so batch cost is a fixed overhead (the wire messages, the pads, the
// receiver's choice-bit row, worker closures) plus O(1) amortized growth
// per instance. Before the scratch-buffer rework the per-instance cost
// was ≥ 3 allocations (sender pads, receiver pad and message), i.e.
// ≥ 3.0 on this metric.
func TestExtOTAllocsDoNotScaleWithBatchSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	snd, rcv, done := newExtPair(t)
	defer done()

	const msgLen = 16
	small := extAllocsPerRun(t, snd, rcv, 256, msgLen)
	large := extAllocsPerRun(t, snd, rcv, 2048, msgLen)
	perOT := (large - small) / (2048 - 256)
	if perOT > 0.05 {
		t.Fatalf("extension OT allocates per instance: %.3f allocs/OT (small batch %.0f, large batch %.0f)",
			perOT, small, large)
	}
}

// TestExtBatchAllocsFarBelowKappa pins the chunk expansion: a batch
// reads every leaf's keystream from round keys expanded at setup (the
// sender's) or on the worker's stack (the receiver's) into stack scratch,
// so one Send/Receive round trip (both endpoints) allocates a fixed
// number of objects whatever its size —
// 23–31 at the time of writing — where one PRG or keystream temporary per
// column would add at least κ = 128 (the per-column PRG.Bytes reads this
// replaced made it 422).
func TestExtBatchAllocsFarBelowKappa(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	snd, rcv, done := newExtPair(t)
	defer done()
	const limit = 48
	for _, m := range []int{1, 256, 2048} {
		if got := extAllocsPerRun(t, snd, rcv, m, 16); got > limit {
			t.Fatalf("one batch of %d OTs allocates %.0f objects, want at most %d (κ = %d)", m, got, limit, kappa)
		}
	}
}

// TestExtBatchAllocBytesNearWire pins the tiled expansion in bytes: a
// direct correlated batch allocates, over both endpoints, its two wire
// messages (the correction message and the sender's corrections,
// CorrelatedCost), its two flat pad arrays (the sender's x0, the
// receiver's chosen pads) and at most 64 KiB besides — whatever the
// batch size and worker count. The sender hashes r¹ straight into its
// reply, neither end builds a κ×m matrix or its transpose, and the pipe
// hands messages over without copying them; any of these would add at
// least one more pad array or wire matrix.
func TestExtBatchAllocBytesNearWire(t *testing.T) {
	const msgLen = 16
	rng := rand.New(rand.NewSource(11))
	corr := func(_ int, x0, x1 []byte) { copy(x1, x0) }
	for _, workers := range []int{1, 2} {
		for _, m := range []int{1024, 11520} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				snd, rcv, done := newExtPair(t)
				defer done()
				choices := make([]bool, m)
				for j := range choices {
					choices[j] = rng.Intn(2) == 1
				}
				batch := func() {
					errCh := make(chan error, 1)
					go func() {
						_, err := snd.SendCorrelated(m, msgLen, corr)
						errCh <- err
					}()
					if _, err := rcv.ReceiveCorrelated(choices, msgLen); err != nil {
						t.Fatalf("ReceiveCorrelated: %v", err)
					}
					if err := <-errCh; err != nil {
						t.Fatalf("SendCorrelated: %v", err)
					}
				}
				batch() // the receiver's T buffer grows once per session
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				batch()
				runtime.ReadMemStats(&after)
				got := after.TotalAlloc - before.TotalAlloc
				wire := uint64(CorrelatedCost(m, msgLen))
				pads := uint64(2 * m * msgLen)
				if limit := wire + pads + 64<<10; got > limit {
					t.Fatalf("workers=%d m=%d: one batch allocates %d B, want at most %d (wire %d + pads %d + 64 KiB)",
						workers, m, got, limit, wire, pads)
				}
				t.Logf("workers=%d m=%d: %d B allocated, wire %d B, pads %d B", workers, m, got, wire, pads)
			}()
		}
	}
}

// TestKKRTBatchAllocBytesNearWire pins the KKRT batch in bytes: a
// second batch of m = 4 096 instances allocates, over both endpoints, at
// most 3.5 × KKRTCost(m) + 64 KiB at one and two workers — the wire
// matrix, which the sender turns into Q in place, the kept rows q_j (as
// many bytes again), the receiver's outputs and, were it to grow, its
// column buffer. Building the 512×m code, T or Q matrix or a transpose
// of one adds at least one more wire each.
func TestKKRTBatchAllocBytesNearWire(t *testing.T) {
	const m, outLen = 4096, 16
	codes := make([]byte, m*KKRTCodeBytes)
	rand.New(rand.NewSource(12)).Read(codes)
	for _, workers := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			snd, rcv, done := newExtPair(t)
			defer done()
			ks, kr := kkrtPair(t, snd, rcv)
			kkrtBatch(t, ks, kr, codes, outLen) // the receiver's T buffer grows once per session
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			kkrtBatch(t, ks, kr, codes, outLen)
			runtime.ReadMemStats(&after)
			got, wire := after.TotalAlloc-before.TotalAlloc, uint64(KKRTCost(m))
			if limit := 7*wire/2 + 64<<10; got > limit {
				t.Fatalf("workers=%d: one KKRT batch of %d allocates %d B, want at most %d (3.5 × wire %d + 64 KiB)",
					workers, m, got, limit, wire)
			}
			t.Logf("workers=%d m=%d: %d B allocated, %.2f × the wire's %d B", workers, m, got, float64(got)/float64(wire), wire)
		}()
	}
}

func BenchmarkExtOT(b *testing.B) {
	a, c := transport.Pair()
	defer a.Close()
	defer c.Close()
	sndCh := make(chan *Sender, 1)
	setupErr := make(chan error, 1)
	go func() {
		s, e := NewSender(a)
		setupErr <- e
		sndCh <- s
	}()
	rcv, err := NewReceiver(c)
	if err != nil {
		b.Fatalf("NewReceiver: %v", err)
	}
	if e := <-setupErr; e != nil {
		b.Fatalf("NewSender: %v", e)
	}
	snd := <-sndCh

	// m = 64 and 128 are the batch sizes q10_small mostly runs: there a
	// batch's fixed leaf cost (key schedules, short keystream pieces)
	// outweighs its per-OT work.
	for _, m := range []int{64, 128, 256, 4096} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			pairs, choices := makeBatch(int64(m), m, 16)
			b.ReportAllocs()
			b.SetBytes(int64(m * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				errCh := make(chan error, 1)
				go func() { errCh <- snd.Send(pairs) }()
				if _, err := rcv.Receive(choices, 16); err != nil {
					b.Fatalf("Receive: %v", err)
				}
				if err := <-errCh; err != nil {
					b.Fatalf("Send: %v", err)
				}
			}
		})
	}
}

// BenchmarkKKRT runs one KKRT batch of 256 instances, both ends: 512
// columns of 32 B, the size of a small query's PSI batch, where the
// per-column key schedules and keystream pieces are most of the work.
func BenchmarkKKRT(b *testing.B) {
	const m = 256
	ks, kr := kkrtFromSeeds(b, rand.New(rand.NewSource(3)))
	codes := make([]byte, m*KKRTCodeBytes)
	rand.New(rand.NewSource(4)).Read(codes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kkrtBatch(b, ks, kr, codes, 16)
	}
}
