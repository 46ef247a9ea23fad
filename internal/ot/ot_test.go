package ot

import (
	"bytes"
	"math/rand"
	"testing"

	"secyan/internal/transport"
)

// setupExtension creates a connected sender/receiver pair over an
// in-memory transport.
func setupExtension(t *testing.T) (*Sender, *Receiver, func()) {
	t.Helper()
	a, b := transport.Pair()
	type sres struct {
		s   *Sender
		err error
	}
	ch := make(chan sres, 1)
	go func() {
		s, err := NewSender(a)
		ch <- sres{s, err}
	}()
	r, err := NewReceiver(b)
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	sr := <-ch
	if sr.err != nil {
		t.Fatalf("NewSender: %v", sr.err)
	}
	return sr.s, r, func() { a.Close(); b.Close() }
}

func runExtension(t *testing.T, s *Sender, r *Receiver, m, msgLen int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2][]byte, m)
	choices := make([]bool, m)
	for i := range pairs {
		pairs[i][0] = make([]byte, msgLen)
		pairs[i][1] = make([]byte, msgLen)
		rng.Read(pairs[i][0])
		rng.Read(pairs[i][1])
		choices[i] = rng.Intn(2) == 1
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s.Send(pairs) }()
	got, err := r.Receive(choices, msgLen)
	if err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("Send: %v", err)
	}
	for i := range got {
		want := pairs[i][0]
		if choices[i] {
			want = pairs[i][1]
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("OT %d (m=%d len=%d): wrong message", i, m, msgLen)
		}
	}
}

func TestExtensionVariousSizes(t *testing.T) {
	s, r, cleanup := setupExtension(t)
	defer cleanup()
	for i, m := range []int{1, 2, 63, 64, 65, 128, 1000} {
		runExtension(t, s, r, m, 16, int64(i))
	}
}

func TestExtensionLongMessages(t *testing.T) {
	s, r, cleanup := setupExtension(t)
	defer cleanup()
	runExtension(t, s, r, 50, 200, 42)
}

func TestExtensionRepeatedBatchesStayFresh(t *testing.T) {
	// Re-using a session must be safe: pads depend on a global counter.
	s, r, cleanup := setupExtension(t)
	defer cleanup()
	for i := 0; i < 5; i++ {
		runExtension(t, s, r, 100, 16, int64(100+i))
	}
}

func TestExtensionEmptyBatch(t *testing.T) {
	s, r, cleanup := setupExtension(t)
	defer cleanup()
	if err := s.Send(nil); err != nil {
		t.Fatal(err)
	}
	got, err := r.Receive(nil, 16)
	if err != nil || got != nil {
		t.Fatalf("empty batch: %v %v", got, err)
	}
	// And the session still works afterwards.
	runExtension(t, s, r, 10, 16, 7)
}

func TestExtensionMismatchedLengthRejected(t *testing.T) {
	s, _, cleanup := setupExtension(t)
	defer cleanup()
	pairs := [][2][]byte{{make([]byte, 16), make([]byte, 8)}}
	if err := s.Send(pairs); err == nil {
		t.Fatal("expected error for mismatched message lengths")
	}
}

func BenchmarkExtension16B(b *testing.B) {
	a, c := transport.Pair()
	defer a.Close()
	defer c.Close()
	sch := make(chan *Sender, 1)
	go func() {
		s, err := NewSender(a)
		if err != nil {
			b.Error(err)
		}
		sch <- s
	}()
	r, err := NewReceiver(c)
	if err != nil {
		b.Fatal(err)
	}
	s := <-sch

	const m = 4096
	pairs := make([][2][]byte, m)
	choices := make([]bool, m)
	for i := range pairs {
		pairs[i][0] = make([]byte, 16)
		pairs[i][1] = make([]byte, 16)
	}
	b.SetBytes(m * 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error, 1)
		go func() { done <- s.Send(pairs) }()
		if _, err := r.Receive(choices, 16); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}
