package transport

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestPairRoundTrip(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()

	msg := []byte("hello bob")
	if err := a.Send(msg); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}
}

func TestPairPreservesOrder(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	for i := 0; i < 100; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 1 || m[0] != byte(i) {
			t.Fatalf("message %d: got %v", i, m)
		}
	}
}

// TestPairSendHandsOverBuffer pins the Conn contract on the pipe: Send
// takes ownership, so the peer receives the sent bytes without a copy,
// and a 1 MiB message crosses the pipe without allocating.
func TestPairSendHandsOverBuffer(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	msg := make([]byte, 1<<20)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	want := bytes.Clone(msg)
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("received bytes differ from the sent ones")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := a.Send(got); err != nil {
			t.Fatal(err)
		}
		if got, err = b.Recv(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a 1 MiB Send + Recv allocates %.1f objects, want 0", allocs)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes changed in transit")
	}
}

func TestPairNoDeadlockOnSimultaneousSends(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	const n = 10000
	var wg sync.WaitGroup
	wg.Add(2)
	run := func(c Conn) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := c.Send(make([]byte, 64)); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
		for i := 0; i < n; i++ {
			if _, err := c.Recv(); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
		}
	}
	go run(a)
	go run(b)
	wg.Wait()
}

func TestStatsCountBytesMessagesRounds(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		m, _ := b.Recv()
		_ = b.Send(m) // echo
		m, _ = b.Recv()
		_ = b.Send(m)
	}()

	_ = a.Send(make([]byte, 10))
	_, _ = a.Recv()
	_ = a.Send(make([]byte, 20))
	_, _ = a.Recv()
	<-done

	s := a.Stats()
	if s.BytesSent != 30 || s.BytesReceived != 30 {
		t.Fatalf("bytes: %+v", s)
	}
	if s.MessagesSent != 2 || s.MessagesRecv != 2 {
		t.Fatalf("messages: %+v", s)
	}
	if s.Rounds != 2 {
		t.Fatalf("rounds: got %d, want 2", s.Rounds)
	}
}

func TestClosedConnFails(t *testing.T) {
	a, b := Pair()
	a.Close()
	if err := a.Send([]byte{1}); err != ErrClosed {
		t.Fatalf("Send after close: got %v, want ErrClosed", err)
	}
	if _, err := b.Recv(); err != ErrClosed {
		t.Fatalf("Recv after peer close: got %v, want ErrClosed", err)
	}
}

func TestRecvDrainsBufferedBeforeCloseError(t *testing.T) {
	a, b := Pair()
	_ = a.Send([]byte{42})
	a.Close()
	// The message was queued before close on the b->a direction? No: a.Close
	// closes both queues, but the already-pushed message should still be
	// deliverable only if queued before close. Our semantics: close drops
	// nothing that was already queued... pop returns items first.
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv buffered message after close: %v", err)
	}
	if m[0] != 42 {
		t.Fatalf("got %v", m)
	}
}

func TestUint64Helpers(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	want := []uint64{0, 1, ^uint64(0), 1 << 40}
	go func() { _ = SendUint64s(a, want) }()
	got, err := RecvUint64s(b, "test: values", len(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: %d vs %d", i, got[i], want[i])
		}
	}

	go func() { _ = SendUint64(a, 7) }()
	v, err := RecvUint64(b, "test: value")
	if err != nil || v != 7 {
		t.Fatalf("RecvUint64: %d, %v", v, err)
	}
}

func TestTCPTransport(t *testing.T) {
	type res struct {
		c   Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := Listen("127.0.0.1:39451")
		ch <- res{c, err}
	}()
	var client Conn
	var err error
	// The listener comes up on another goroutine: retry for up to ~1 s.
	for i := 0; i < 100; i++ {
		client, err = Dial("127.0.0.1:39451")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	server := <-ch
	if server.err != nil {
		t.Fatalf("Listen: %v", server.err)
	}
	defer client.Close()
	defer server.c.Close()

	go func() {
		m, _ := server.c.Recv()
		_ = server.c.Send(append(m, '!'))
	}()
	if err := client.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping!" {
		t.Fatalf("got %q", got)
	}
	if client.Stats().BytesSent != 4 {
		t.Fatalf("tcp stats: %+v", client.Stats())
	}
}

// TestUint64ReceivesAreSizeChecked sends a short, a long and an
// odd-length message to both uint64 decoders: each must be a *SizeError
// naming the message and both lengths, before anything is decoded.
func TestUint64ReceivesAreSizeChecked(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	for _, site := range []struct {
		name string
		n    int
		recv func() error
	}{
		{"RecvUint64s", 4, func() error { _, err := RecvUint64s(b, "test: values", 4); return err }},
		{"RecvUint64", 1, func() error { _, err := RecvUint64(b, "test: values"); return err }},
	} {
		for _, tc := range []struct {
			name string
			len  int
		}{{"short", 8*site.n - 8}, {"long", 8*site.n + 8}, {"odd", 8*site.n + 3}} {
			if err := a.Send(make([]byte, tc.len)); err != nil {
				t.Fatal(err)
			}
			var se *SizeError
			if err := site.recv(); !errors.As(err, &se) || se.What != "test: values" || se.Got != tc.len || se.Want != 8*site.n {
				t.Fatalf("%s %s: %v, want a *SizeError{test: values, %d, %d}", site.name, tc.name, err, tc.len, 8*site.n)
			}
		}
	}
}
