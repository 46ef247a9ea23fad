package ot

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"secyan/internal/transport"
)

// recordingConn wraps a Conn and records the size of every message in
// transfer order. Message *sizes* (unlike contents, which depend on
// session randomness) are a deterministic transcript fingerprint: they
// must not change with the worker count.
type recordingConn struct {
	transport.Conn
	mu   sync.Mutex
	sent []int
	recv []int
}

func (r *recordingConn) Send(data []byte) error {
	err := r.Conn.Send(data)
	if err == nil {
		r.mu.Lock()
		r.sent = append(r.sent, len(data))
		r.mu.Unlock()
	}
	return err
}

func (r *recordingConn) Recv() ([]byte, error) {
	m, err := r.Conn.Recv()
	if err == nil {
		r.mu.Lock()
		r.recv = append(r.recv, len(m))
		r.mu.Unlock()
	}
	return m, err
}

// extensionRun captures everything observable about one OT-extension
// session that must be invariant under the worker count.
type extensionRun struct {
	out      [][]byte
	sndStats transport.Stats
	rcvStats transport.Stats
	sndSent  []int
	rcvSent  []int
	sndIdx   uint64
	rcvIdx   uint64
	sndErr   error
}

func runExtensionAt(t *testing.T, workers, m, msgLen int, seed int64) extensionRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))

	rawA, rawB := transport.Pair()
	defer rawA.Close()
	defer rawB.Close()
	a := &recordingConn{Conn: rawA}
	b := &recordingConn{Conn: rawB}

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

	var run extensionRun
	var snd *Sender
	done := make(chan struct{})
	go func() {
		defer close(done)
		var err error
		snd, err = NewSender(a)
		if err != nil {
			run.sndErr = err
			return
		}
		run.sndErr = snd.Send(pairs)
	}()
	rcv, err := NewReceiver(b)
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	out, err := rcv.Receive(choices, msgLen)
	if err != nil {
		t.Fatalf("Receive: %v", err)
	}
	<-done
	if run.sndErr != nil {
		t.Fatalf("sender: %v", run.sndErr)
	}

	// The receiver must hold exactly the chosen messages.
	for j := range out {
		want := pairs[j][0]
		if choices[j] {
			want = pairs[j][1]
		}
		if !bytes.Equal(out[j], want) {
			t.Fatalf("workers=%d: message %d mismatch", workers, j)
		}
	}

	run.out = out
	run.sndStats = a.Conn.Stats()
	run.rcvStats = b.Conn.Stats()
	run.sndSent = a.sent
	run.rcvSent = b.sent
	run.sndIdx = snd.idx
	run.rcvIdx = rcv.idx
	return run
}

// TestExtensionTranscriptEquivalenceAcrossWorkers runs the same OT
// extension batch at worker counts 1 and 4 and requires the outputs, the
// full transport.Stats of both endpoints, the per-message size sequence,
// and the tweak counters to be identical.
func TestExtensionTranscriptEquivalenceAcrossWorkers(t *testing.T) {
	for _, cfg := range []struct{ m, msgLen int }{
		{m: 333, msgLen: 16},
		{m: 64, msgLen: 33},
	} {
		t.Run(fmt.Sprintf("m=%d/len=%d", cfg.m, cfg.msgLen), func(t *testing.T) {
			ref := runExtensionAt(t, 1, cfg.m, cfg.msgLen, 99)
			for _, workers := range []int{4} {
				got := runExtensionAt(t, workers, cfg.m, cfg.msgLen, 99)
				if !reflect.DeepEqual(got.out, ref.out) {
					t.Fatalf("workers=%d: outputs differ from serial run", workers)
				}
				if got.sndStats != ref.sndStats {
					t.Fatalf("workers=%d: sender stats %+v, serial %+v", workers, got.sndStats, ref.sndStats)
				}
				if got.rcvStats != ref.rcvStats {
					t.Fatalf("workers=%d: receiver stats %+v, serial %+v", workers, got.rcvStats, ref.rcvStats)
				}
				if !reflect.DeepEqual(got.sndSent, ref.sndSent) {
					t.Fatalf("workers=%d: sender message sizes %v, serial %v", workers, got.sndSent, ref.sndSent)
				}
				if !reflect.DeepEqual(got.rcvSent, ref.rcvSent) {
					t.Fatalf("workers=%d: receiver message sizes %v, serial %v", workers, got.rcvSent, ref.rcvSent)
				}
				if got.sndIdx != ref.sndIdx || got.rcvIdx != ref.rcvIdx {
					t.Fatalf("workers=%d: idx (%d,%d), serial (%d,%d)", workers, got.sndIdx, got.rcvIdx, ref.sndIdx, ref.rcvIdx)
				}
			}
		})
	}
}

// BenchmarkExtensionWorkers measures the parallel speedup of the IKNP
// hot path (column expansion, transpose, per-OT padding) at pinned
// worker counts. Setup (base OTs) is excluded from the timing.
func BenchmarkExtensionWorkers(b *testing.B) {
	const m = 4096
	const msgLen = 16
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))

			ca, cb := transport.Pair()
			defer ca.Close()
			defer cb.Close()
			var snd *Sender
			setup := make(chan error, 1)
			go func() {
				var err error
				snd, err = NewSender(ca)
				setup <- err
			}()
			rcv, err := NewReceiver(cb)
			if err != nil {
				b.Fatal(err)
			}
			if err := <-setup; err != nil {
				b.Fatal(err)
			}

			rng := rand.New(rand.NewSource(1))
			pairs := make([][2][]byte, m)
			choices := make([]bool, m)
			for j := range pairs {
				pairs[j][0] = make([]byte, msgLen)
				pairs[j][1] = make([]byte, msgLen)
				rng.Read(pairs[j][0])
				rng.Read(pairs[j][1])
				choices[j] = rng.Intn(2) == 1
			}

			b.SetBytes(int64(2 * m * msgLen))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sendErr := make(chan error, 1)
				go func() { sendErr <- snd.Send(pairs) }()
				if _, err := rcv.Receive(choices, msgLen); err != nil {
					b.Fatal(err)
				}
				if err := <-sendErr; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
