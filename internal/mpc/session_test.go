package mpc

import (
	"context"
	"errors"
	"sync"
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
