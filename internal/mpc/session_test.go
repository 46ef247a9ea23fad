package mpc

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secyan/internal/share"
	"secyan/internal/transport"
)

// TestSessionConcurrentShareExchanges runs several independent
// share/reveal round trips concurrently over one connection, each on
// its own stream-scoped Party.
func TestSessionConcurrentShareExchanges(t *testing.T) {
	sa, sb := SessionPair(share.Ring{Bits: 32}, SessionConfig{})
	defer sa.Close()
	defer sb.Close()

	const n = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	for i := uint32(0); i < n; i++ {
		pa, err := sa.PartyOn(i)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sb.PartyOn(i)
		if err != nil {
			t.Fatal(err)
		}
		vals := []uint64{uint64(i) + 1, uint64(i) + 2, uint64(i) + 3}
		wg.Add(2)
		go func(p *Party, vals []uint64) {
			defer wg.Done()
			defer p.Conn.Close()
			mine, err := p.ShareToPeer(vals)
			if err != nil {
				errs <- err
				return
			}
			if err := p.RevealToPeer(mine); err != nil {
				errs <- err
			}
		}(pa, vals)
		go func(p *Party, want []uint64) {
			defer wg.Done()
			defer p.Conn.Close()
			mine, err := p.RecvShares(len(want))
			if err != nil {
				errs <- err
				return
			}
			got, err := p.RecvReveal(mine)
			if err != nil {
				errs <- err
				return
			}
			for j := range want {
				if got[j] != want[j] {
					errs <- errors.New("reconstructed value mismatch")
					return
				}
			}
		}(pb, vals)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := sa.Stats(); st.Streams != n {
		t.Fatalf("streams opened: %d", st.Streams)
	}
}

// TestSessionNextPartySequentialIDs checks the auto-id allocator.
func TestSessionNextPartySequentialIDs(t *testing.T) {
	sa, sb := SessionPair(share.Ring{}, SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	for want := uint32(0); want < 3; want++ {
		_, ida, err := sa.NextParty(PartyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		_, idb, err := sb.NextParty(PartyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if ida != want || idb != want {
			t.Fatalf("ids %d/%d want %d", ida, idb, want)
		}
	}
}

// TestSessionStreamDeadlineIsolated: a stream run under a context
// deadline fails with the context's error once it passes, while a
// sibling keeps working.
func TestSessionStreamDeadlineIsolated(t *testing.T) {
	sa, sb := SessionPair(share.Ring{}, SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	pa, err := sa.PartyOn(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	pd, release := pa.WithContext(ctx)
	defer release()
	if _, err := pd.Conn.Recv(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("recv past the deadline: %v", err)
	}
	p2a, err := sa.PartyOn(1)
	if err != nil {
		t.Fatal(err)
	}
	p2b, err := sb.PartyOn(1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p2b.RecvShares(2)
		done <- err
	}()
	if _, err := p2a.ShareToPeer([]uint64{5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("sibling stream after deadline: %v", err)
	}
}

// TestSessionWrapStreamHook: the fault-injection hook sees each stream.
func TestSessionWrapStreamHook(t *testing.T) {
	ca, cb := transport.Pair()
	var wrapped []uint32
	var mu sync.Mutex
	sa := NewSession(Alice, ca, share.Ring{}, SessionConfig{
		WrapStream: func(id uint32, c transport.Conn) transport.Conn {
			mu.Lock()
			wrapped = append(wrapped, id)
			mu.Unlock()
			return c
		},
	})
	sb := NewSession(Bob, cb, share.Ring{}, SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	if _, err := sa.PartyOn(0); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.PartyOn(5); err != nil {
		t.Fatal(err)
	}
	if len(wrapped) != 2 || wrapped[0] != 0 || wrapped[1] != 5 {
		t.Fatalf("wrap hook saw %v", wrapped)
	}
}

// resizeConn cuts the at-th message it sends by -delta bytes, or grows
// it by delta zero bytes: a peer whose message has the wrong length.
type resizeConn struct {
	transport.Conn
	at, sends, delta int
}

func (c *resizeConn) Send(b []byte) error {
	if c.sends++; c.sends == c.at {
		if c.delta < 0 {
			b = b[:len(b)+c.delta]
		} else {
			b = append(b, make([]byte, c.delta)...)
		}
	}
	return c.Conn.Send(b)
}

// TestSessionRootPeerMisbehaves: a peer that sends a short or a long
// message on the reserved root stream, or closes it, fails the root on
// both sides. Every stream waiting for it — two per side, at once —
// gets a *RootError, and so does a stream opened afterwards, at once:
// the root is attempted once for the whole session, which stays up for
// traffic that needs no OT. Nothing panics or hangs, and closing the
// sessions leaves no goroutine behind.
func TestSessionRootPeerMisbehaves(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(transport.Conn) transport.Conn
	}{
		{"short", func(c transport.Conn) transport.Conn { return &resizeConn{Conn: c, at: 1, delta: -10} }},
		{"long", func(c transport.Conn) transport.Conn { return &resizeConn{Conn: c, at: 2, delta: 1} }},
		{"closed", func(c transport.Conn) transport.Conn {
			return transport.InjectFaults(c, transport.Fault{AtSend: 3, Mode: transport.FaultClose})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var roots atomic.Int32
			ca, cb := transport.Pair()
			sa := NewSession(Alice, ca, share.Ring{}, SessionConfig{})
			sb := NewSession(Bob, cb, share.Ring{}, SessionConfig{
				WrapStream: func(id uint32, c transport.Conn) transport.Conn {
					if id != RootStream {
						return c
					}
					roots.Add(1)
					return tc.wrap(c)
				},
			})
			errs := make(chan error, 4)
			for id := uint32(0); id < 2; id++ {
				for _, s := range []*Session{sa, sb} {
					p, err := s.PartyOn(id)
					if err != nil {
						t.Fatal(err)
					}
					go func() {
						_, err := p.OTSender()
						errs <- err
					}()
				}
			}
			for i := 0; i < 4; i++ {
				select {
				case err := <-errs:
					if !errors.As(err, new(*RootError)) {
						t.Fatalf("a stream waiting for the root got %v, want a *RootError", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("a stream waiting for a failed root hangs")
				}
			}
			for _, s := range []*Session{sa, sb} {
				p, err := s.PartyOn(2)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.KKRTReceiver(); !errors.As(err, new(*RootError)) {
					t.Fatalf("a stream opened after the root failed got %v, want its *RootError", err)
				}
			}
			if n := roots.Load(); n != 1 {
				t.Fatalf("the root stream was opened %d times", n)
			}
			if sa.Err() != nil || sb.Err() != nil {
				t.Fatalf("a failed root took the session down: %v / %v", sa.Err(), sb.Err())
			}
			pa, _ := sa.PartyOn(3)
			pb, _ := sb.PartyOn(3)
			if _, err := pa.ShareToPeer([]uint64{7}); err != nil {
				t.Fatal(err)
			}
			if _, err := pb.RecvShares(1); err != nil {
				t.Fatalf("a stream without OT after the root failed: %v", err)
			}
			sa.Close()
			sb.Close()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestSessionRefusesRootStream: the root's stream id is the session's
// own.
func TestSessionRefusesRootStream(t *testing.T) {
	sa, sb := SessionPair(share.Ring{}, SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	if _, err := sa.PartyOn(RootStream); err == nil {
		t.Fatal("PartyOn opened the root's stream")
	}
	if _, err := sa.OpenStream(RootStream); err == nil {
		t.Fatal("OpenStream opened the root's stream")
	}
}

// TestSessionRootWaitEndsWithItsStream: a stream waiting for a root its
// peer never starts — the peer's run ended before its first OT need —
// gives up when the peer closes the stream, instead of waiting for the
// peer's next run.
func TestSessionRootWaitEndsWithItsStream(t *testing.T) {
	sa, sb := SessionPair(share.Ring{}, SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	pa, err := sa.PartyOn(0)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sb.PartyOn(0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := pa.OTReceiver()
		done <- err
	}()
	pb.Conn.Close()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("waiting for the root on a closed stream: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a stream its peer closed still waits for the root")
	}
}
