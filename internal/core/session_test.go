package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/transport"
)

// sessionQueryFor strips the peer's relations from a fully-populated
// query, producing the view one party holds.
func sessionQueryFor(q *Query, rels []*relation.Relation, role mpc.Role) *Query {
	cq := &Query{Output: q.Output}
	for i, in := range q.Inputs {
		ci := in
		if in.Owner == role {
			ci.Rel = rels[i]
		} else {
			ci.Rel = nil
		}
		cq.Inputs = append(cq.Inputs, ci)
	}
	return cq
}

// TestSessionConcurrentTranscriptEquivalence is the session layer's
// core correctness claim: a query running on one of several concurrent
// streams of a multiplexed session produces the exact transcript — the
// same per-stream payload bytes, messages and rounds — as the same
// query on a dedicated connection. Four identical queries interleave
// over one session; every stream's Stats must equal the serial
// baseline byte for byte.
func TestSessionConcurrentTranscriptEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q, rels := example11Query(rng, 12, 20)
	want := plaintextReference(t, q, rels)

	// Serial baseline on a bare connection pair.
	alice, bob := mpc.Pair(testRing)
	res, _, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*relation.Relation, error) {
			return runQuery(p, sessionQueryFor(q, rels, mpc.Alice))
		},
		func(p *mpc.Party) (*relation.Relation, error) { return runQuery(p, sessionQueryFor(q, rels, mpc.Bob)) },
	)
	if err != nil {
		t.Fatalf("serial baseline: %v", err)
	}
	compareResults(t, "serial baseline", res, want)
	wantA, wantB := alice.Conn.Stats(), bob.Conn.Stats()
	alice.Conn.Close()
	bob.Conn.Close()

	// The same query, four times, interleaved over one session.
	sa, sb := mpc.SessionPair(testRing, mpc.SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	const n = 4
	var (
		wg    sync.WaitGroup
		resMu sync.Mutex
		outs  = make([]*relation.Relation, n)
		errs  = make([]error, 2*n)
		stats = make([]transport.Stats, 2*n)
	)
	for i := 0; i < n; i++ {
		pa, err := sa.PartyOn(uint32(i), mpc.PartyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sb.PartyOn(uint32(i), mpc.PartyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(i int, p *mpc.Party) {
			defer wg.Done()
			r, err := runQuery(p, sessionQueryFor(q, rels, mpc.Alice))
			resMu.Lock()
			outs[i], errs[2*i], stats[2*i] = r, err, p.Conn.Stats()
			resMu.Unlock()
			p.Conn.Close()
		}(i, pa)
		go func(i int, p *mpc.Party) {
			defer wg.Done()
			_, err := runQuery(p, sessionQueryFor(q, rels, mpc.Bob))
			resMu.Lock()
			errs[2*i+1], stats[2*i+1] = err, p.Conn.Stats()
			resMu.Unlock()
			p.Conn.Close()
		}(i, pb)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("interleaved run %d: %v", i/2, err)
		}
	}
	for i := 0; i < n; i++ {
		compareResults(t, "interleaved result", outs[i], want)
		if got := stats[2*i]; got != wantA {
			t.Errorf("stream %d alice stats diverge from serial:\n got %+v\nwant %+v", i, got, wantA)
		}
		if got := stats[2*i+1]; got != wantB {
			t.Errorf("stream %d bob stats diverge from serial:\n got %+v\nwant %+v", i, got, wantB)
		}
	}

	// The session rollup accounts every stream's payload exactly.
	st := sa.Stats()
	if st.Streams != n {
		t.Fatalf("session streams: %d want %d", st.Streams, n)
	}
	if st.Data.BytesSent != n*wantA.BytesSent || st.Data.BytesReceived != n*wantA.BytesReceived {
		t.Fatalf("session data rollup %+v does not equal %d× serial %+v", st.Data, n, wantA)
	}
}

// TestSessionPrecomputeOverlapsOnlineQuery stages the offline phase of
// one query on a background stream while an online query runs on
// another stream of the same session, then consumes the staged
// material.
func TestSessionPrecomputeOverlapsOnlineQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	q, rels := example11Query(rng, 10, 16)
	want := plaintextReference(t, q, rels)

	sa, sb := mpc.SessionPair(testRing, mpc.SessionConfig{})
	defer sa.Close()
	defer sb.Close()

	// Stream 0: background offline pass over the bare query shape.
	shape := &Query{Inputs: make([]Input, len(q.Inputs)), Output: q.Output}
	for i, in := range q.Inputs {
		in.Rel = nil
		shape.Inputs[i] = in
	}
	pa0, err := sa.PartyOn(0, mpc.PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pb0, err := sb.PartyOn(0, mpc.PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	preDone := make(chan error, 2)
	go func() { _, err := PrecomputeOpts(context.Background(), pa0, shape, Options{}); preDone <- err }()
	go func() { _, err := PrecomputeOpts(context.Background(), pb0, shape, Options{}); preDone <- err }()

	// Stream 1: an online query runs while the offline pass is going.
	pa1, err := sa.PartyOn(1, mpc.PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pb1, err := sb.PartyOn(1, mpc.PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	onlineDone := make(chan error, 1)
	go func() {
		_, err := runQuery(pb1, sessionQueryFor(q, rels, mpc.Bob))
		onlineDone <- err
	}()
	res, err := runQuery(pa1, sessionQueryFor(q, rels, mpc.Alice))
	if err != nil {
		t.Fatalf("online run during precompute: %v", err)
	}
	if err := <-onlineDone; err != nil {
		t.Fatalf("online run (bob) during precompute: %v", err)
	}
	compareResults(t, "online during precompute", res, want)

	for i := 0; i < 2; i++ {
		if err := <-preDone; err != nil {
			t.Fatalf("background precompute: %v", err)
		}
	}

	// The staged parties now run the real query with the offline
	// material already in hand.
	stagedDone := make(chan error, 1)
	go func() {
		_, err := runQuery(pb0, sessionQueryFor(q, rels, mpc.Bob))
		stagedDone <- err
	}()
	res, err = runQuery(pa0, sessionQueryFor(q, rels, mpc.Alice))
	if err != nil {
		t.Fatalf("staged run: %v", err)
	}
	if err := <-stagedDone; err != nil {
		t.Fatalf("staged run (bob): %v", err)
	}
	compareResults(t, "staged run", res, want)
}
