package secyan

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"secyan/internal/transport"
)

// tcpConnPair returns the two ends of a loopback TCP connection wrapped
// as message transports.
func tcpConnPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	acc := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		acc <- res{c, err}
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-acc
	if a.err != nil {
		t.Fatal(a.err)
	}
	return transport.NewConn(a.c), transport.NewConn(dialed)
}

// TestSessionFaultMatrix injects every fault mode at several protocol
// positions, over both the in-memory pipe and a real TCP connection,
// and requires: (a) the faulted execution fails on both parties with
// an error labeled with exactly the affected stream, (b) the session
// itself stays healthy, and (c) a subsequent query on the same session
// runs to completion with the right answer.
func TestSessionFaultMatrix(t *testing.T) {
	q, rels := sessionExampleQuery(31, 8, 12)
	full := viewFor(q, rels, Alice)
	for i := range full.Inputs {
		full.Inputs[i].Rel = rels[i]
	}
	want, err := Plaintext(full, DefaultRing)
	if err != nil {
		t.Fatal(err)
	}
	wantSums := sumByClass(want)

	transports := []struct {
		name string
		mk   func(t *testing.T) (Conn, Conn)
	}{
		{"pipe", func(t *testing.T) (Conn, Conn) { return transport.Pair() }},
		{"tcp", tcpConnPair},
	}
	modes := []transport.FaultMode{
		transport.FaultDrop, transport.FaultDelay,
		transport.FaultPartial, transport.FaultClose,
	}
	// Message indices on Alice's faulted stream: the first send lands in
	// the input/setup phase, the sixth mid-protocol.
	atSends := []int{1, 6}

	for _, tr := range transports {
		for _, mode := range modes {
			for _, at := range atSends {
				t.Run(fmt.Sprintf("%s/%s/at%d", tr.name, mode, at), func(t *testing.T) {
					ca, cb := tr.mk(t)
					fault := transport.Fault{AtSend: at, Mode: mode, Delay: 600 * time.Millisecond}
					alice, err := Open(Alice, ca, WithStreamWrapper(func(id uint32, c Conn) Conn {
						if id == 0 {
							return transport.InjectFaults(c, fault)
						}
						return c
					}))
					if err != nil {
						t.Fatal(err)
					}
					bob, err := Open(Bob, cb)
					if err != nil {
						t.Fatal(err)
					}
					defer alice.Close()
					defer bob.Close()

					// Dropped messages can surface only as a stall, so the
					// faulted run is bounded by a context deadline.
					ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
					defer cancel()
					bobErr := make(chan error, 1)
					go func() {
						_, err := bob.Query(ctx, viewFor(q, rels, Bob))
						bobErr <- err
					}()
					_, errA := alice.Query(ctx, viewFor(q, rels, Alice))
					errB := <-bobErr
					if errA == nil && errB == nil {
						t.Fatalf("fault %v at send %d went unnoticed by both parties", mode, at)
					}
					for who, err := range map[string]error{"alice": errA, "bob": errB} {
						if err == nil {
							continue
						}
						var se *StreamError
						if !errors.As(err, &se) {
							t.Fatalf("%s: fault error not stream-labeled: %v", who, err)
						}
						if se.Stream != 0 {
							t.Fatalf("%s: fault attributed to stream %d, want 0: %v", who, se.Stream, err)
						}
					}
					// A dropped message either stalls both parties until the
					// deadline or — when Alice's next message arrives in its
					// place, as after the first base-OT message — is rejected by
					// Bob as malformed, who then closes the stream under Alice.
					if mode == transport.FaultDrop && !errors.Is(errA, context.DeadlineExceeded) && !errors.Is(errA, transport.ErrClosed) {
						t.Fatalf("dropped message should surface as a deadline or a closed stream: %v", errA)
					}
					if alice.Err() != nil || bob.Err() != nil {
						t.Fatalf("stream fault poisoned the session: %v / %v", alice.Err(), bob.Err())
					}

					// The next query on the same session is unaffected.
					ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel2()
					go func() {
						_, err := bob.Query(ctx2, viewFor(q, rels, Bob))
						bobErr <- err
					}()
					res, err := alice.Query(ctx2, viewFor(q, rels, Alice))
					if err != nil {
						t.Fatalf("query after fault: %v", err)
					}
					if err := <-bobErr; err != nil {
						t.Fatalf("query after fault (bob): %v", err)
					}
					if got := sumByClass(res.Relation); len(got) != len(wantSums) {
						t.Fatalf("post-fault result %v want %v", got, wantSums)
					}
				})
			}
		}
	}
}

// TestSessionFaultCloseMidProtocol kills the whole underlying
// connection mid-protocol and checks that every in-flight execution
// fails promptly with a labeled, ErrClosed-compatible error.
func TestSessionFaultCloseMidProtocol(t *testing.T) {
	q, rels := sessionExampleQuery(37, 8, 12)
	ca, cb := transport.Pair()
	// The 4th frame Alice's mux writes (data or control) tears down the
	// transport under the whole session.
	alice, err := Open(Alice, transport.InjectFaults(ca, transport.Fault{AtSend: 4, Mode: transport.FaultClose}))
	if err != nil {
		t.Fatal(err)
	}
	bob, err := Open(Bob, cb)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	defer bob.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	bobErr := make(chan error, 1)
	go func() {
		_, err := bob.Query(ctx, viewFor(q, rels, Bob))
		bobErr <- err
	}()
	_, errA := alice.Query(ctx, viewFor(q, rels, Alice))
	errB := <-bobErr
	if errA == nil || errB == nil {
		t.Fatalf("mid-protocol close unnoticed: alice %v bob %v", errA, errB)
	}
	if !errors.Is(errA, transport.ErrClosed) {
		t.Fatalf("alice error not ErrClosed-compatible: %v", errA)
	}
	// The failed send returns to the query at once; the session records
	// its fatal error when the mux's reader goroutine sees the close.
	for deadline := time.Now().Add(5 * time.Second); alice.Err() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("session survived the death of its transport")
		}
	}
}

// TestSeededFaultCampaign replays a deterministic seeded fault schedule
// against full protocol runs: every iteration either completes with
// the right answer or fails cleanly — no hangs, no panics, no
// cross-stream blame.
func TestSeededFaultCampaign(t *testing.T) {
	q, rels := sessionExampleQuery(41, 8, 12)
	for seed := uint64(1); seed <= 4; seed++ {
		faults := transport.SeededFaults(seed, 2, 40)
		ca, cb := transport.Pair()
		alice, err := Open(Alice, ca, WithStreamWrapper(func(id uint32, c Conn) Conn {
			if id == 0 {
				return transport.InjectFaults(c, faults...)
			}
			return c
		}))
		if err != nil {
			t.Fatal(err)
		}
		bob, err := Open(Bob, cb)
		if err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		bobErr := make(chan error, 1)
		go func() {
			_, err := bob.Query(ctx, viewFor(q, rels, Bob))
			bobErr <- err
		}()
		_, errA := alice.Query(ctx, viewFor(q, rels, Alice))
		errB := <-bobErr
		cancel()
		for who, err := range map[string]error{"alice": errA, "bob": errB} {
			if err == nil {
				continue
			}
			var se *StreamError
			if errors.As(err, &se) && se.Stream != 0 {
				t.Fatalf("seed %d: %s blamed stream %d: %v", seed, who, se.Stream, err)
			}
		}
		alice.Close()
		bob.Close()
	}
}
