package secyan

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"secyan/internal/transport"
)

// exampleQuery builds the paper's running example (insurance ⋈ records
// ⋈ classes, aggregate by class) with deterministic random data, fully
// populated.
func sessionExampleQuery(seed int64, nPersons, nRecords int) *Query {
	rng := rand.New(rand.NewSource(seed))
	r1 := NewRelation("person", "coinsurance")
	for i := 0; i < nPersons; i++ {
		r1.Append([]uint64{uint64(i), uint64(rng.Intn(100))}, uint64(rng.Intn(100)))
	}
	r2 := NewRelation("person", "disease")
	for i := 0; i < nRecords; i++ {
		r2.Append([]uint64{uint64(rng.Intn(nPersons + 3)), uint64(rng.Intn(5))}, uint64(rng.Intn(1000)))
	}
	r3 := NewRelation("disease", "class")
	for d := 0; d < 4; d++ {
		r3.Append([]uint64{uint64(d), uint64(d % 2)}, 1)
	}
	return &Query{
		Inputs: []Input{
			{Name: "insurance", Owner: Alice, Schema: r1.Schema, N: r1.Len(), Rel: r1},
			{Name: "records", Owner: Bob, Schema: r2.Schema, N: r2.Len(), Rel: r2},
			{Name: "classes", Owner: Alice, Schema: r3.Schema, N: r3.Len(), Rel: r3},
		},
		Output: []Attr{"class"},
	}
}

// countQuery describes q with every annotation 1: the count that an
// AVG divides by.
func countQuery(q *Query) *Query {
	c := q.Shape()
	for i, in := range q.Inputs {
		r := NewRelation(in.Schema.Attrs...)
		for j := range in.Rel.Tuples {
			r.Append(in.Rel.Tuples[j], 1)
		}
		c.Inputs[i].Rel = r
	}
	return c
}

func sumByClass(r *Relation) map[uint64]uint64 {
	out := map[uint64]uint64{}
	for i := range r.Tuples {
		out[r.Tuples[i][0]] += r.Annot[i]
	}
	return out
}

// TestSessionConcurrentRuns executes several queries concurrently over
// one OpenLocal session pair and checks each against the plaintext
// engine.
func TestSessionConcurrentRuns(t *testing.T) {
	q := sessionExampleQuery(7, 12, 20)
	want, err := Plaintext(q, DefaultRing)
	if err != nil {
		t.Fatal(err)
	}

	alice, bob := OpenLocal()
	defer alice.Close()
	defer bob.Close()

	const n = 3
	ctx := context.Background()
	var wg sync.WaitGroup
	results := make([]*Result, n)
	errs := make([]error, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			_, errs[2*i+1] = bob.Query(ctx, q.For(Bob))
		}(i)
		go func(i int) {
			defer wg.Done()
			results[i], errs[2*i] = alice.Query(ctx, q.For(Alice))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	wantSums := sumByClass(want)
	for i := 0; i < n; i++ {
		if got := sumByClass(results[i].Relation); !reflect.DeepEqual(got, wantSums) {
			t.Fatalf("run %d: %v want %v", i, got, wantSums)
		}
	}
	// The n query streams and the one the session's OT root ran on.
	st := alice.Stats()
	if st.Streams != n+1 || st.OpenStreams != 0 {
		t.Fatalf("streams %d open %d; want %d and 0", st.Streams, st.OpenStreams, n+1)
	}
	if st.Data.BytesSent == 0 || st.OverheadBytesSent == 0 {
		t.Fatalf("stats rollup missing traffic: %+v", st)
	}
	if alice.Err() != nil || bob.Err() != nil {
		t.Fatalf("healthy session reports error: %v / %v", alice.Err(), bob.Err())
	}
}

// TestSessionPrecomputeThenRun stages the offline phase over the bare
// query shape on a background stream, then runs the query online,
// consuming the staged material.
func TestSessionPrecomputeThenRun(t *testing.T) {
	q := sessionExampleQuery(11, 10, 16)
	// Pings exercise the heartbeat plumbing alongside real protocol
	// traffic; the interval is long enough that its 3× liveness timeout
	// holds on starved schedulers (race detector, single-core CI).
	alice, bob := OpenLocal(WithHeartbeat(300 * time.Millisecond))
	defer alice.Close()
	defer bob.Close()

	ctx := context.Background()
	shape := q.Shape()
	preDone := make(chan error, 1)
	go func() {
		_, err := bob.Precompute(ctx, shape)
		preDone <- err
	}()
	tr, err := alice.Precompute(ctx, shape)
	if err != nil {
		t.Fatalf("precompute: %v", err)
	}
	if err := <-preDone; err != nil {
		t.Fatalf("precompute (bob): %v", err)
	}
	if tr == nil || len(tr.Steps) == 0 {
		t.Fatal("precompute returned no trace steps")
	}

	runDone := make(chan error, 1)
	go func() {
		_, err := bob.Query(ctx, q.For(Bob))
		runDone <- err
	}()
	res, err := alice.Query(ctx, q.For(Alice))
	if err != nil {
		t.Fatalf("staged run: %v", err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("staged run (bob): %v", err)
	}
	want, err := Plaintext(q, DefaultRing)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := sumByClass(res.Relation), sumByClass(want); !reflect.DeepEqual(got, w) {
		t.Fatalf("staged result %v want %v", got, w)
	}
	// The staged stream was consumed: both endpoints opened exactly two
	// streams (the precompute's, and the one the session's OT root ran
	// on), nothing new for the run.
	if st := alice.Stats(); st.Streams != 2 {
		t.Fatalf("run after precompute opened a fresh stream: %d streams", st.Streams)
	}
}

// TestSessionSharedComposition reproduces the §7 AVG composition
// through the Session API: two WithSharedResult results combined by
// RevealRatio on a third stream.
func TestSessionSharedComposition(t *testing.T) {
	q := sessionExampleQuery(13, 10, 16)
	cnt := countQuery(q)

	alice, bob := OpenLocal()
	defer alice.Close()
	defer bob.Close()
	ctx := context.Background()

	bobDone := make(chan error, 1)
	go func() {
		numB, err := bob.Query(ctx, q.For(Bob), WithSharedResult())
		if err != nil {
			bobDone <- err
			return
		}
		denB, err := bob.Query(ctx, cnt.For(Bob), WithSharedResult())
		if err != nil {
			bobDone <- err
			return
		}
		_, err = bob.RevealRatio(ctx, numB.Shared, denB.Shared, 1)
		bobDone <- err
	}()
	num, err := alice.Query(ctx, q.For(Alice), WithSharedResult())
	if err != nil {
		t.Fatalf("shared sum: %v", err)
	}
	den, err := alice.Query(ctx, cnt.For(Alice), WithSharedResult())
	if err != nil {
		t.Fatalf("shared count: %v", err)
	}
	avg, err := alice.RevealRatio(ctx, num.Shared, den.Shared, 1)
	if err != nil {
		t.Fatalf("reveal ratio: %v", err)
	}
	if err := <-bobDone; err != nil {
		t.Fatalf("bob composition: %v", err)
	}
	if avg.Len() == 0 {
		t.Fatal("empty AVG result")
	}
}

// TestRevealRatioLeavesPrecomputeParked runs a shared sum and count,
// parks a precompute of q, reveals their ratio, then queries q. The
// ratio equals the plaintext sum over count per group, and it runs on a
// fresh stream, so the parked stream survives it and the query runs
// warm: it moves exactly the plan's online estimate.
func TestRevealRatioLeavesPrecomputeParked(t *testing.T) {
	q := sessionExampleQuery(19, 10, 16)
	cnt := countQuery(q)

	alice, bob := OpenLocal()
	defer alice.Close()
	defer bob.Close()
	ctx := context.Background()

	shared := func(q *Query) (a, b *SharedResult) {
		t.Helper()
		ra, rb, err := both(alice, bob, func(s *Session) (*Result, error) {
			return s.Query(ctx, q.For(s.role), WithSharedResult())
		})
		if err != nil {
			t.Fatalf("shared query: %v", err)
		}
		return ra.Shared, rb.Shared
	}
	numA, numB := shared(q)
	denA, denB := shared(cnt)
	if _, _, err := both(alice, bob, func(s *Session) (*Trace, error) {
		return s.Precompute(ctx, q.Shape())
	}); err != nil {
		t.Fatalf("precompute: %v", err)
	}
	avg, _, err := both(alice, bob, func(s *Session) (*Relation, error) {
		if s.role == Alice {
			return s.RevealRatio(ctx, numA, denA, 1)
		}
		return s.RevealRatio(ctx, numB, denB, 1)
	})
	if err != nil {
		t.Fatalf("reveal ratio: %v", err)
	}
	plainSum := func(q *Query) map[uint64]uint64 {
		r, err := Plaintext(q, DefaultRing)
		if err != nil {
			t.Fatal(err)
		}
		return sumByClass(r)
	}
	sums, counts := plainSum(q), plainSum(cnt)
	want := map[uint64]uint64{}
	for g, c := range counts {
		if c != 0 {
			want[g] = sums[g] / c
		}
	}
	if got := sumByClass(avg); len(avg.Tuples) != len(want) || !maps.Equal(got, want) {
		t.Errorf("ratio %v over %d rows, plaintext sum/count %v", got, len(avg.Tuples), want)
	}
	res, _, err := both(alice, bob, func(s *Session) (*Result, error) {
		return s.Query(ctx, q.For(s.role))
	})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	plan, err := Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Trace.TotalBytes(); got != plan.EstOnlineBytes {
		t.Errorf("query after RevealRatio moved %d bytes, want the precomputed online estimate %d (cold: %d)",
			got, plan.EstOnlineBytes, plan.EstBytes)
	}
}

// TestSessionExplain checks that the options-based Explain agrees
// between the top-level function and the session method — which prices
// the setup steps at 0 B, as a session's streams run them — and that
// both parties derive identical plans from public parameters.
func TestSessionExplain(t *testing.T) {
	q := sessionExampleQuery(17, 12, 18)
	alice, bob := OpenLocal()
	defer alice.Close()
	defer bob.Close()

	// Plans carry unexported executor closures, so compare the public
	// surface: step sequence and estimates.
	publicView := func(p *Plan) string {
		s := fmt.Sprintf("est=%d offline=%d online=%d out=%d root=%s\n",
			p.EstBytes, p.EstOfflineBytes, p.EstOnlineBytes, p.EstOut, p.Root)
		for _, st := range p.Steps {
			s += fmt.Sprintf("%s/%s[%s] n=%d est=%d\n", st.Phase, st.Op, st.Node, st.N, st.EstBytes)
		}
		return s
	}

	pa, err := alice.Explain(q.For(Alice))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := bob.Explain(q.For(Bob))
	if err != nil {
		t.Fatal(err)
	}
	if publicView(pa) != publicView(pb) {
		t.Fatalf("parties derived different plans from public parameters:\n%s\nvs\n%s", publicView(pa), publicView(pb))
	}
	free, err := Explain(q.For(Alice), WithRing(DefaultRing))
	if err != nil {
		t.Fatal(err)
	}
	if publicView(pa) != publicView(free.OnSession()) {
		t.Fatal("session Explain disagrees with package Explain")
	}
	if _, err := Explain(q.For(Alice), WithEstOut(64)); err != nil {
		t.Fatalf("explain with estOut: %v", err)
	}
}

// TestMissingRelationErrors checks the typed missing-relation error
// through both evaluators.
func TestMissingRelationErrors(t *testing.T) {
	q := sessionExampleQuery(19, 8, 10)

	// Plaintext with a hole.
	_, err := Plaintext(q.For(Alice), DefaultRing) // Bob's records stripped
	if !errors.Is(err, ErrMissingRelation) {
		t.Fatalf("plaintext hole: got %v, want ErrMissingRelation", err)
	}
	var mre *MissingRelationError
	if !errors.As(err, &mre) || mre.Input != "records" {
		t.Fatalf("missing input name not recoverable from %v", err)
	}

	// Secure run where the owner forgot its own relation.
	alice, bob := OpenLocal()
	defer alice.Close()
	defer bob.Close()
	_, err = alice.Query(context.Background(), q.Shape())
	if !errors.Is(err, ErrMissingRelation) {
		t.Fatalf("secure hole: got %v, want ErrMissingRelation", err)
	}
	if !errors.As(err, &mre) {
		t.Fatalf("secure hole not typed: %v", err)
	}
	_ = bob
}

// TestSessionStreamDeadline: a run whose peer never shows up fails
// with a stream-labeled deadline error once the caller's context
// expires; the session itself stays healthy and runs the next query
// fine.
func TestSessionStreamDeadline(t *testing.T) {
	q := sessionExampleQuery(23, 8, 10)
	alice, bob := OpenLocal()
	defer alice.Close()
	defer bob.Close()

	// Deliberately lonely run: bob issues nothing, so alice times out.
	// (The deadline fires before any data arrives from the peer.)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := alice.Query(ctx, q.For(Alice))
	if err == nil {
		t.Fatal("lonely run succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error not context-compatible: %v", err)
	}
	var se *StreamError
	if !errors.As(err, &se) {
		t.Fatalf("deadline error not stream-labeled: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("deadline took %v to fire", time.Since(start))
	}
	if alice.Err() != nil {
		t.Fatalf("stream deadline poisoned the session: %v", alice.Err())
	}

	// Bob opens his half of the expired stream and fails fast, keeping
	// the two endpoints' stream sequences aligned for the next query.
	if _, err := bob.Query(context.Background(), q.For(Bob)); err == nil {
		t.Fatal("bob's half of the expired stream succeeded")
	}
	if _, _, err := queryBoth(alice, bob, q.For); err != nil {
		t.Fatalf("query after the expired one: %v", err)
	}
}

// TestSessionContextCancel: a canceled context aborts the run with a
// context-compatible, stream-labeled error.
func TestSessionContextCancel(t *testing.T) {
	q := sessionExampleQuery(29, 8, 10)
	alice, bob := OpenLocal()
	defer alice.Close()
	defer bob.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := alice.Query(ctx, q.For(Alice))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled run: got %v", err)
	}
	_ = bob
}

// TestOpenRejectsBadRole guards the constructor.
func TestOpenRejectsBadRole(t *testing.T) {
	ca, cb := transport.Pair()
	defer ca.Close()
	defer cb.Close()
	if _, err := Open(Role(9), ca); err == nil {
		t.Fatal("invalid role accepted")
	}
}
