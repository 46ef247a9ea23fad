package secyan

import (
	"context"
	"errors"
	"fmt"
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
func sessionExampleQuery(seed int64, nPersons, nRecords int) (*Query, []*Relation) {
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
	q := &Query{
		Inputs: []Input{
			{Name: "insurance", Owner: Alice, Schema: r1.Schema, N: r1.Len()},
			{Name: "records", Owner: Bob, Schema: r2.Schema, N: r2.Len()},
			{Name: "classes", Owner: Alice, Schema: r3.Schema, N: r3.Len()},
		},
		Output: []Attr{"class"},
	}
	return q, []*Relation{r1, r2, r3}
}

// viewFor strips the peer's relations, producing one party's query.
func viewFor(q *Query, rels []*Relation, role Role) *Query {
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
	q, rels := sessionExampleQuery(7, 12, 20)
	want, err := Plaintext(viewFor(q, rels, Alice), DefaultRing)
	if err == nil {
		t.Fatal("plaintext over a partial view should fail") // guard: viewFor must strip
	}
	full := &Query{Inputs: append([]Input(nil), q.Inputs...), Output: q.Output}
	for i := range full.Inputs {
		full.Inputs[i].Rel = rels[i]
	}
	want, err = Plaintext(full, DefaultRing)
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
			_, errs[2*i+1] = bob.Query(ctx, viewFor(q, rels, Bob))
		}(i)
		go func(i int) {
			defer wg.Done()
			results[i], errs[2*i] = alice.Query(ctx, viewFor(q, rels, Alice))
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
	st := alice.Stats()
	if st.Streams != n || st.OpenStreams != 0 {
		t.Fatalf("streams %d open %d; want %d and 0", st.Streams, st.OpenStreams, n)
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
	q, rels := sessionExampleQuery(11, 10, 16)
	// Frequent pings exercise the heartbeat plumbing alongside real
	// protocol traffic; the generous timeout keeps the test robust on
	// starved schedulers (race detector, single-core CI).
	alice, bob := OpenLocal(WithHeartbeat(100*time.Millisecond), WithPeerTimeout(10*time.Second))
	defer alice.Close()
	defer bob.Close()

	ctx := context.Background()
	shape := viewFor(q, nil, Role(255)) // no relations attached anywhere
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
		_, err := bob.Query(ctx, viewFor(q, rels, Bob))
		runDone <- err
	}()
	res, err := alice.Query(ctx, viewFor(q, rels, Alice))
	if err != nil {
		t.Fatalf("staged run: %v", err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("staged run (bob): %v", err)
	}
	full := viewFor(q, rels, Alice)
	for i := range full.Inputs {
		full.Inputs[i].Rel = rels[i]
	}
	want, err := Plaintext(full, DefaultRing)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := sumByClass(res.Relation), sumByClass(want); !reflect.DeepEqual(got, w) {
		t.Fatalf("staged result %v want %v", got, w)
	}
	// The staged stream was consumed: both endpoints opened exactly two
	// streams (precompute + nothing new for the run).
	if st := alice.Stats(); st.Streams != 1 {
		t.Fatalf("run after precompute opened a fresh stream: %d streams", st.Streams)
	}
}

// TestSessionSharedComposition reproduces the §7 AVG composition
// through the Session API: two WithSharedResult results combined by
// RevealRatio on a third stream.
func TestSessionSharedComposition(t *testing.T) {
	q, rels := sessionExampleQuery(13, 10, 16)
	sum := viewFor(q, rels, Alice)
	// The count query re-annotates every tuple with 1.
	cntRels := make([]*Relation, len(rels))
	for i, r := range rels {
		c := NewRelation(r.Schema.Attrs...)
		for j := range r.Tuples {
			c.Append(r.Tuples[j], 1)
		}
		cntRels[i] = c
	}
	cnt := viewFor(q, cntRels, Alice)

	alice, bob := OpenLocal()
	defer alice.Close()
	defer bob.Close()
	ctx := context.Background()

	bobDone := make(chan error, 1)
	go func() {
		numB, err := bob.Query(ctx, viewFor(q, rels, Bob), WithSharedResult())
		if err != nil {
			bobDone <- err
			return
		}
		denB, err := bob.Query(ctx, viewFor(q, cntRels, Bob), WithSharedResult())
		if err != nil {
			bobDone <- err
			return
		}
		_, err = bob.RevealRatio(ctx, numB.Shared, denB.Shared, 1)
		bobDone <- err
	}()
	num, err := alice.Query(ctx, sum, WithSharedResult())
	if err != nil {
		t.Fatalf("shared sum: %v", err)
	}
	den, err := alice.Query(ctx, cnt, WithSharedResult())
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

// TestSessionExplain checks that the options-based Explain agrees
// between the top-level function and the session method, and that both
// parties derive identical plans from public parameters.
func TestSessionExplain(t *testing.T) {
	q, rels := sessionExampleQuery(17, 12, 18)
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

	pa, err := alice.Explain(viewFor(q, rels, Alice))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := bob.Explain(viewFor(q, rels, Bob))
	if err != nil {
		t.Fatal(err)
	}
	if publicView(pa) != publicView(pb) {
		t.Fatalf("parties derived different plans from public parameters:\n%s\nvs\n%s", publicView(pa), publicView(pb))
	}
	free, err := Explain(viewFor(q, rels, Alice), WithRing(DefaultRing))
	if err != nil {
		t.Fatal(err)
	}
	if publicView(pa) != publicView(free) {
		t.Fatal("session Explain disagrees with package Explain")
	}
	if _, err := Explain(viewFor(q, rels, Alice), WithEstOut(64)); err != nil {
		t.Fatalf("explain with estOut: %v", err)
	}
}

// TestMissingRelationErrors checks the typed missing-relation error
// through both evaluators.
func TestMissingRelationErrors(t *testing.T) {
	q, rels := sessionExampleQuery(19, 8, 10)

	// Plaintext with a hole.
	partial := viewFor(q, rels, Alice) // Bob's records stripped
	_, err := Plaintext(partial, DefaultRing)
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
	hole := viewFor(q, nil, Role(255))
	_, err = alice.Query(context.Background(), hole)
	if !errors.Is(err, ErrMissingRelation) {
		t.Fatalf("secure hole: got %v, want ErrMissingRelation", err)
	}
	if !errors.As(err, &mre) {
		t.Fatalf("secure hole not typed: %v", err)
	}
	_ = bob
}

// TestSessionStreamDeadline: a run whose peer never shows up fails
// with a stream-labeled deadline error; the session itself stays
// healthy and runs the next query fine.
func TestSessionStreamDeadline(t *testing.T) {
	q, rels := sessionExampleQuery(23, 8, 10)
	alice, bob := OpenLocal(WithStreamDeadline(50 * time.Millisecond))
	defer alice.Close()
	defer bob.Close()

	// Deliberately lonely run: bob issues nothing, so alice times out.
	// (The deadline fires before any data arrives from the peer.)
	start := time.Now()
	_, err := alice.Query(context.Background(), viewFor(q, rels, Alice))
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
	if _, err := bob.Query(context.Background(), viewFor(q, rels, Bob)); err == nil {
		t.Fatal("bob's half of the expired stream succeeded")
	}
}

// TestSessionContextCancel: a canceled context aborts the run with a
// context-compatible, stream-labeled error.
func TestSessionContextCancel(t *testing.T) {
	q, rels := sessionExampleQuery(29, 8, 10)
	alice, bob := OpenLocal()
	defer alice.Close()
	defer bob.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := alice.Query(ctx, viewFor(q, rels, Alice))
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
