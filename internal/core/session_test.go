package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/ot"
	"secyan/internal/relation"
	"secyan/internal/transport"
)

// TestSessionConcurrentTranscriptEquivalence is the session layer's
// core correctness claim: a query running on one of several concurrent
// streams of a multiplexed session produces the transcript of the same
// query on a dedicated connection less its setup steps, which the
// session's OT root ran once for every stream. Four identical queries
// interleave over one session; every stream's Stats must be the same,
// byte for byte, and equal the serial baseline's bytes and messages less
// those of its setup steps, which measure 0 on a stream. Rounds count
// direction changes, so they add up only within one; the stream's first
// send opens a round that, on the bare connection, may have continued
// the setup's last.
func TestSessionConcurrentTranscriptEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q := example11Query(rng, 12, 20)
	want := plaintextReference(t, q)

	// Serial baseline on a bare connection pair, its setup steps traced.
	alice, bob := mpc.Pair(testRing)
	var setup [2]TraceStep // Alice's and Bob's setup steps, summed
	for r, p := range []*mpc.Party{alice, bob} {
		p.Observer = func(s TraceStep) {
			if s.Phase == "setup" {
				setup[r].Bytes += s.Bytes
				setup[r].Messages += s.Messages
				setup[r].Rounds += s.Rounds
			}
		}
	}
	res, _, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*relation.Relation, error) {
			return runQuery(p, q.For(mpc.Alice))
		},
		func(p *mpc.Party) (*relation.Relation, error) { return runQuery(p, q.For(mpc.Bob)) },
	)
	if err != nil {
		t.Fatalf("serial baseline: %v", err)
	}
	compareResults(t, "serial baseline", res, want)
	serial := [2]transport.Stats{alice.Conn.Stats(), bob.Conn.Stats()}
	alice.Conn.Close()
	bob.Conn.Close()

	// The same query, four times, interleaved over one session.
	sa, sb := mpc.SessionPair(testRing, mpc.SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	const n = 4
	var (
		wg         sync.WaitGroup
		resMu      sync.Mutex
		outs       = make([]*relation.Relation, n)
		errs       = make([]error, 2*n)
		stats      = make([]transport.Stats, 2*n)
		setupBytes int64
	)
	for i := 0; i < n; i++ {
		pa, err := sa.PartyOn(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sb.PartyOn(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		pa.Observer = func(s TraceStep) {
			if s.Phase == "setup" {
				resMu.Lock()
				setupBytes += s.Bytes + s.EstBytes
				resMu.Unlock()
			}
		}
		wg.Add(2)
		go func(i int, p *mpc.Party) {
			defer wg.Done()
			r, err := runQuery(p, q.For(mpc.Alice))
			resMu.Lock()
			outs[i], errs[2*i], stats[2*i] = r, err, p.Conn.Stats()
			resMu.Unlock()
			p.Conn.Close()
		}(i, pa)
		go func(i int, p *mpc.Party) {
			defer wg.Done()
			_, err := runQuery(p, q.For(mpc.Bob))
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
	if setupBytes != 0 {
		t.Errorf("the setup steps of a stream measured or estimated %d bytes, want 0", setupBytes)
	}
	for i := 0; i < n; i++ {
		compareResults(t, "interleaved result", outs[i], want)
		for r, who := range []string{"alice", "bob"} {
			got, base, su := stats[2*i+r], serial[r], setup[r]
			if got != stats[r] {
				t.Errorf("stream %d %s stats diverge from stream 0's:\n got %+v\nwant %+v", i, who, got, stats[r])
			}
			if got.TotalBytes() != base.TotalBytes()-su.Bytes ||
				got.MessagesSent+got.MessagesRecv != base.MessagesSent+base.MessagesRecv-su.Messages ||
				got.Rounds-(base.Rounds-su.Rounds) > 1 || got.Rounds < base.Rounds-su.Rounds {
				t.Errorf("stream %d %s: %+v is not the serial run %+v less its setup steps (%d B, %d messages, %d rounds)",
					i, who, got, base, su.Bytes, su.Messages, su.Rounds)
			}
		}
	}

	// The session rollup accounts every stream's payload exactly, and
	// the root's setup once, on its own stream.
	st := sa.Stats()
	if st.Streams != n+1 {
		t.Fatalf("session streams: %d want %d query streams and the root's", st.Streams, n+1)
	}
	rootCost := ot.SetupCost() + ot.DeriveCost() + 2*ot.KKRTSetupCost()
	if got := st.Data.TotalBytes(); got != n*stats[0].TotalBytes()+rootCost {
		t.Fatalf("session data rollup %d B is not %d× a stream's %d B plus the root's %d B", got, n, stats[0].TotalBytes(), rootCost)
	}
}

// TestSessionPrecomputeOverlapsOnlineQuery stages the offline phase of
// one query on a background stream while an online query runs on
// another stream of the same session, then consumes the staged
// material.
func TestSessionPrecomputeOverlapsOnlineQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	q := example11Query(rng, 10, 16)
	want := plaintextReference(t, q)

	sa, sb := mpc.SessionPair(testRing, mpc.SessionConfig{})
	defer sa.Close()
	defer sb.Close()

	// Stream 0: background offline pass over the bare query shape.
	shape := q.Shape()
	pa0, err := sa.PartyOn(0)
	if err != nil {
		t.Fatal(err)
	}
	pb0, err := sb.PartyOn(0)
	if err != nil {
		t.Fatal(err)
	}
	preDone := make(chan error, 2)
	go func() { _, err := PrecomputeOpts(context.Background(), pa0, shape, Options{}); preDone <- err }()
	go func() { _, err := PrecomputeOpts(context.Background(), pb0, shape, Options{}); preDone <- err }()

	// Stream 1: an online query runs while the offline pass is going.
	pa1, err := sa.PartyOn(1)
	if err != nil {
		t.Fatal(err)
	}
	pb1, err := sb.PartyOn(1)
	if err != nil {
		t.Fatal(err)
	}
	onlineDone := make(chan error, 1)
	go func() {
		_, err := runQuery(pb1, q.For(mpc.Bob))
		onlineDone <- err
	}()
	res, err := runQuery(pa1, q.For(mpc.Alice))
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
		_, err := runQuery(pb0, q.For(mpc.Bob))
		stagedDone <- err
	}()
	res, err = runQuery(pa0, q.For(mpc.Alice))
	if err != nil {
		t.Fatalf("staged run: %v", err)
	}
	if err := <-stagedDone; err != nil {
		t.Fatalf("staged run (bob): %v", err)
	}
	compareResults(t, "staged run", res, want)
}

// runOnStreams runs q on stream ids of sessions sa and sb, every stream
// pair at once, under ctx, and returns Alice's results and traces and
// the first error of either side.
func runOnStreams(ctx context.Context, t *testing.T, sa, sb *mpc.Session, q *Query, ids ...uint32) ([]*relation.Relation, []*Trace, error) {
	t.Helper()
	var wg sync.WaitGroup
	rels, trs := make([]*relation.Relation, len(ids)), make([]*Trace, len(ids))
	errs := make([]error, 2*len(ids))
	for i, id := range ids {
		pa, err := sa.PartyOn(id)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sb.PartyOn(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer pa.Conn.Close()
			rels[i], trs[i], errs[2*i] = Run(ctx, pa, q.For(mpc.Alice), Options{})
		}()
		go func() {
			defer wg.Done()
			defer pb.Conn.Close()
			_, _, errs[2*i+1] = Run(ctx, pb, q.For(mpc.Bob), Options{})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return rels, trs, err
		}
	}
	return rels, trs, nil
}

// TestSessionConcurrentRootSetup: eight streams start at once on a fresh
// session, so all of them need the OT root before it exists. One of them
// sets it up on the reserved stream, the others wait for it, and every
// stream's result equals the plaintext one.
func TestSessionConcurrentRootSetup(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	q := example11Query(rng, 8, 12)
	want := plaintextReference(t, q)
	sa, sb := mpc.SessionPair(testRing, mpc.SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	rels, _, err := runOnStreams(context.Background(), t, sa, sb, q, 0, 1, 2, 3, 4, 5, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, rel := range rels {
		compareResults(t, fmt.Sprintf("stream %d", i), rel, want)
	}
	if st := sa.Stats(); st.Streams != 9 {
		t.Fatalf("session opened %d streams, want 8 and the root's", st.Streams)
	}
}

// TestSessionStreamAfterFailedOne: a stream that fails mid-query — its
// conn closes under Alice at her third send — fails on both sides and
// leaves the root and the session working: the next stream derives its
// ends from the root and runs the query to the plaintext result.
func TestSessionStreamAfterFailedOne(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	q := example11Query(rng, 8, 12)
	want := plaintextReference(t, q)
	ca, cb := transport.Pair()
	sa := mpc.NewSession(mpc.Alice, ca, testRing, mpc.SessionConfig{
		WrapStream: func(id uint32, c transport.Conn) transport.Conn {
			if id == 0 {
				return transport.InjectFaults(c, transport.Fault{AtSend: 3, Mode: transport.FaultClose})
			}
			return c
		},
	})
	sb := mpc.NewSession(mpc.Bob, cb, testRing, mpc.SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, _, err := runOnStreams(ctx, t, sa, sb, q, 0); err == nil {
		t.Fatal("the faulted stream succeeded")
	}
	rels, _, err := runOnStreams(ctx, t, sa, sb, q, 1)
	if err != nil {
		t.Fatalf("stream after the failed one: %v", err)
	}
	compareResults(t, "stream after the failed one", rels[0], want)
}

// TestSessionStreamsMeasureTheirEstimates pins est == measured on
// session streams, step by step: the first query of a session (whose
// setup steps build the root), a later one, and two concurrent ones. On
// every stream the setup steps are priced at 0 B and move 0 B, and so
// does the setup phase of every flight record; the root's traffic is
// the session's, in no query's trace.
func TestSessionStreamsMeasureTheirEstimates(t *testing.T) {
	obs.Enable()
	obs.Flight().Reset()
	defer func() {
		obs.Disable()
		obs.Flight().Reset()
	}()
	rng := rand.New(rand.NewSource(61))
	q := example11Query(rng, 10, 16)
	sa, sb := mpc.SessionPair(testRing, mpc.SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	var traces []*Trace
	for _, ids := range [][]uint32{{0}, {1}, {2, 3}} {
		_, trs, err := runOnStreams(context.Background(), t, sa, sb, q, ids...)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, trs...)
	}
	var queries int64
	for i, tr := range traces {
		setups := 0
		for _, s := range tr.Steps {
			if s.Bytes != s.EstBytes {
				t.Errorf("query %d, %s/%s[%s]: measured %d bytes, estimated %d", i, s.Phase, s.Op, s.Node, s.Bytes, s.EstBytes)
			}
			if s.Phase == "setup" {
				setups++
				if s.Bytes != 0 || s.Messages != 0 || s.Rounds != 0 {
					t.Errorf("query %d, setup step %s[%s] moved %d B in %d messages, %d rounds", i, s.Op, s.Node, s.Bytes, s.Messages, s.Rounds)
				}
			}
		}
		if setups == 0 {
			t.Fatalf("query %d ran no setup step", i)
		}
		queries += tr.TotalBytes()
	}
	rootCost := ot.SetupCost() + ot.DeriveCost() + 2*ot.KKRTSetupCost()
	if got := sa.Stats().Data.TotalBytes(); got != queries+rootCost {
		t.Fatalf("session moved %d B: the queries' %d B and the root's %d B make %d", got, queries, rootCost, queries+rootCost)
	}
	recs := obs.Flight().Records()
	if len(recs) != 2*len(traces) {
		t.Fatalf("%d flight records, want %d", len(recs), 2*len(traces))
	}
	for _, r := range recs {
		setup := false
		for _, ph := range r.Phases {
			if ph.Phase == "setup" {
				setup = true
				if ph.Bytes != 0 {
					t.Errorf("%s's flight record of query %d: setup moved %d B", r.Party, r.QID, ph.Bytes)
				}
			}
		}
		if !setup {
			t.Errorf("%s's flight record of query %d has no setup phase", r.Party, r.QID)
		}
	}
}

// TestSessionStateBounded: what a session keeps does not grow with the
// queries it has run. The live heap after two collections — the second
// one empties what sync.Pool kept past the first — differs by less than
// 64 KiB between query 10 and query 200 of one session: the streams'
// counters, pools and scratch go with their streams, and the root is
// built once.
func TestSessionStateBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	q := example11Query(rng, 4, 6)
	want := plaintextReference(t, q)
	sa, sb := mpc.SessionPair(testRing, mpc.SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	var at10 int64
	for i := uint32(1); i <= 200; i++ {
		rels, _, err := runOnStreams(context.Background(), t, sa, sb, q, i)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		compareResults(t, fmt.Sprintf("query %d", i), rels[0], want)
		if i == 10 {
			at10 = live()
		}
	}
	if d := live() - at10; d >= 64<<10 || d <= -64<<10 {
		t.Fatalf("the live heap moved by %d B between query 10 and query 200 of one session", d)
	}
}
