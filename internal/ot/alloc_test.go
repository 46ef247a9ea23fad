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
// so batch cost is a fixed overhead (matrix, transpose, per-column PRG
// reads, framing) plus O(1) amortized growth per instance. Before the
// scratch-buffer rework the per-instance cost was ≥ 3 allocations
// (sender pads, receiver pad and message), i.e. ≥ 3.0 on this metric.
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

	for _, m := range []int{256, 4096} {
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
