package core

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/obs"
)

// TestObsFlightRecordFromRun runs a multi-node query under active
// observation and checks both parties' flight records against the
// measured trace.
func TestObsFlightRecordFromRun(t *testing.T) {
	obs.Enable()
	obs.Flight().Reset()
	defer func() {
		obs.Disable()
		obs.Flight().Reset()
	}()

	rng := rand.New(rand.NewSource(11))
	q := multiNodeQuery(rng)
	rel, tr, aerr, berr := runTraced(context.Background(), q)
	if aerr != nil || berr != nil {
		t.Fatalf("run: alice %v, bob %v", aerr, berr)
	}

	recs := obs.Flight().Records()
	if len(recs) != 2 {
		t.Fatalf("flight recorder holds %d records, want 2 (one per party)", len(recs))
	}
	byParty := map[string]obs.QueryRecord{}
	for _, r := range recs {
		byParty[r.Party] = r
	}
	for _, party := range []string{"Alice", "Bob"} {
		r, ok := byParty[party]
		if !ok {
			t.Fatalf("no flight record for %s: %+v", party, recs)
		}
		if r.QID == 0 {
			t.Errorf("%s: record has no query ID", party)
		}
		if len(r.PlanDigest) != 16 {
			t.Errorf("%s: plan digest %q, want 16 hex chars", party, r.PlanDigest)
		}
		if r.Steps != len(tr.Steps) {
			t.Errorf("%s: record claims %d steps, trace has %d", party, r.Steps, len(tr.Steps))
		}
		// The protocols are synchronous: both parties measure the same
		// byte totals, so each record matches Alice's trace. (Round
		// counts can differ by one between the parties, depending on
		// which direction a step's final message travels, so only their
		// presence is pinned here.)
		if r.Bytes != tr.TotalBytes() {
			t.Errorf("%s: record bytes %d, trace total %d", party, r.Bytes, tr.TotalBytes())
		}
		if r.Rounds <= 0 {
			t.Errorf("%s: record rounds %d, want > 0", party, r.Rounds)
		}
		var phaseBytes int64
		for _, p := range r.Phases {
			phaseBytes += p.Bytes
		}
		if phaseBytes != r.Bytes {
			t.Errorf("%s: phase bytes sum %d != record bytes %d", party, phaseBytes, r.Bytes)
		}
		if r.Error != "" || r.Blame != "" {
			t.Errorf("%s: clean run carries error %q blame %q", party, r.Error, r.Blame)
		}
	}
	a, b := byParty["Alice"], byParty["Bob"]
	if a.Rounds != tr.TotalRounds() {
		t.Errorf("Alice record rounds %d, her trace total %d", a.Rounds, tr.TotalRounds())
	}
	if a.PlanDigest != b.PlanDigest {
		t.Errorf("parties disagree on plan digest: %s vs %s", a.PlanDigest, b.PlanDigest)
	}
	if a.QID == b.QID {
		t.Errorf("untagged parties share query ID %d, want distinct mints", a.QID)
	}
	if a.Peer != "Bob" || b.Peer != "Alice" {
		t.Errorf("peer fields wrong: Alice.Peer=%s Bob.Peer=%s", a.Peer, b.Peer)
	}
	if a.OutputRows != rel.Len() {
		t.Errorf("Alice record output rows %d, result has %d", a.OutputRows, rel.Len())
	}

	shape := a.Query + ":" + a.PlanDigest[:8]
	if got := mQueryRuns.Value(shape, "ok"); got < 2 {
		t.Errorf("per-shape run counter %s/ok = %d, want >= 2", shape, got)
	}
	if got := mQueryLatency.Value(shape); got < 2 {
		t.Errorf("per-shape latency histogram %s count = %d, want >= 2", shape, got)
	}
}

// TestObsStepMetricLabels checks the per-phase labeled step counters
// advance by exactly the trace's step and byte counts (times two: both
// parties execute every step).
func TestObsStepMetricLabels(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	rng := rand.New(rand.NewSource(13))
	q := multiNodeQuery(rng)

	before := map[string]int64{}
	beforeBytes := map[string]int64{}
	snapshot := func(dst, dstBytes map[string]int64, steps []TraceStep) {
		for _, s := range steps {
			dst[s.Phase] = mStepsByLabel.Value(s.Phase)
			dstBytes[s.Phase] = mStepBytesByLabel.Value(s.Phase)
		}
	}

	// Dry run to learn the step shape, then measure deltas over a second.
	_, tr, aerr, berr := runTraced(context.Background(), q)
	if aerr != nil || berr != nil {
		t.Fatalf("run: alice %v, bob %v", aerr, berr)
	}
	snapshot(before, beforeBytes, tr.Steps)
	_, tr2, aerr, berr := runTraced(context.Background(), q)
	if aerr != nil || berr != nil {
		t.Fatalf("second run: alice %v, bob %v", aerr, berr)
	}

	wantSteps := map[string]int64{}
	wantBytes := map[string]int64{}
	for _, s := range tr2.Steps {
		wantSteps[s.Phase] += 2 // both parties execute the step
		wantBytes[s.Phase] += 2 * s.Bytes
	}
	for phase, want := range wantSteps {
		if got := mStepsByLabel.Value(phase) - before[phase]; got != want {
			t.Errorf("steps{phase=%s} advanced %d, want %d", phase, got, want)
		}
		if got := mStepBytesByLabel.Value(phase) - beforeBytes[phase]; got != wantBytes[phase] {
			t.Errorf("bytes{phase=%s} advanced %d, want %d", phase, got, wantBytes[phase])
		}
	}
}

// TestObsQueryEventLifecycle checks a run under the event log emits one
// query.start and query.finish plus one query.step per plan step for
// each party, all carrying that party's minted query ID.
func TestObsQueryEventLifecycle(t *testing.T) {
	lg := obs.Events()
	lg.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		lg.Reset()
	}()

	rng := rand.New(rand.NewSource(29))
	q := multiNodeQuery(rng)
	_, tr, aerr, berr := runTraced(context.Background(), q)
	if aerr != nil || berr != nil {
		t.Fatalf("run: alice %v, bob %v", aerr, berr)
	}

	kinds := map[uint64]map[string]int{}
	for _, e := range lg.Recent(0) {
		if e.QID == 0 {
			continue // circuit hit/miss events outside any admitted query
		}
		if kinds[e.QID] == nil {
			kinds[e.QID] = map[string]int{}
		}
		kinds[e.QID][e.Kind]++
	}
	if len(kinds) != 2 {
		t.Fatalf("events span %d query IDs, want 2 (one per party): %v", len(kinds), kinds)
	}
	for qid, m := range kinds {
		if m["query.start"] != 1 || m["query.finish"] != 1 {
			t.Errorf("qid %d: start/finish counts %d/%d, want 1/1", qid, m["query.start"], m["query.finish"])
		}
		if m["query.step"] != len(tr.Steps) {
			t.Errorf("qid %d: %d query.step events, want %d", qid, m["query.step"], len(tr.Steps))
		}
	}
}

// TestObsTranscriptNeutralityCore pins transcript neutrality at the
// executor level: a run with metrics, events and the flight recorder all
// active measures byte-for-byte the same per-step communication as an
// unobserved run of the same query.
func TestObsTranscriptNeutralityCore(t *testing.T) {
	run := func() *Trace {
		rng := rand.New(rand.NewSource(23))
		q := example11Query(rng, 12, 18)
		_, tr, aerr, berr := runTraced(context.Background(), q)
		if aerr != nil || berr != nil {
			t.Fatalf("run: alice %v, bob %v", aerr, berr)
		}
		return tr
	}
	base := run()

	obs.Enable()
	lg := obs.Events()
	lg.SetJSONSink(io.Discard)
	obs.Flight().Reset()
	defer func() {
		lg.SetJSONSink(nil)
		lg.Reset()
		obs.Disable()
		obs.Flight().Reset()
	}()
	observed := run()

	if len(base.Steps) != len(observed.Steps) {
		t.Fatalf("observed run has %d steps, unobserved %d", len(observed.Steps), len(base.Steps))
	}
	for i := range base.Steps {
		b, o := base.Steps[i], observed.Steps[i]
		if b.Bytes != o.Bytes || b.Messages != o.Messages || b.Rounds != o.Rounds {
			t.Errorf("step %d (%s/%s[%s]): observed %d B/%d msgs/%d rounds, unobserved %d/%d/%d",
				i, b.Phase, b.Op, b.Node, o.Bytes, o.Messages, o.Rounds, b.Bytes, b.Messages, b.Rounds)
		}
	}
	if obs.Flight().Len() != 2 {
		t.Errorf("observed run left %d flight records, want 2", obs.Flight().Len())
	}
}

// TestObsBlameOnFailure checks an interrupted run's flight record names
// the failing step.
func TestObsBlameOnFailure(t *testing.T) {
	obs.Enable()
	obs.Flight().Reset()
	defer func() {
		obs.Disable()
		obs.Flight().Reset()
	}()

	rng := rand.New(rand.NewSource(31))
	q := example11Query(rng, 12, 18)
	q.NoLocalOptimizations = true // force circuit traffic so the cut lands mid-step

	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	alice.Observer = func(s TraceStep) {
		if s.Phase == "reduce" {
			// Sever the connection once the reduce phase starts.
			alice.Conn.Close()
			bob.Conn.Close()
		}
	}
	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		_, _, err := Run(ctx, bob, q.For(mpc.Bob), Options{})
		done <- err
	}()
	_, _, aerr := Run(ctx, alice, q.For(mpc.Alice), Options{})
	berr := <-done
	if aerr == nil && berr == nil {
		t.Fatalf("run succeeded despite severed connection")
	}

	var failed []obs.QueryRecord
	for _, r := range obs.Flight().Records() {
		if r.Error != "" {
			failed = append(failed, r)
		}
	}
	if len(failed) == 0 {
		t.Fatalf("no failed flight record retained: %+v", obs.Flight().Records())
	}
	for _, r := range failed {
		if r.Blame == "" {
			t.Errorf("%s: failed record carries no blame: %+v", r.Party, r)
		}
	}
}

// TestObsStatusConcurrentQueries pins the live step status to the query,
// not the role: two queries running concurrently on one session pair each
// have their own /debug/step entry on Alice's side, and the first to
// finish clears only its own.
func TestObsStatusConcurrentQueries(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	rng := rand.New(rand.NewSource(37))
	q := example11Query(rng, 8, 12)

	sa, sb := mpc.SessionPair(testRing, mpc.SessionConfig{})
	defer sa.Close()
	defer sb.Close()

	// Each query's Alice half parks after its first step until released.
	type held struct {
		qid     uint64
		reached chan struct{}
		release chan struct{}
		done    chan error
	}
	start := func(stream uint32) *held {
		pa, err := sa.PartyOn(stream)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sb.PartyOn(stream)
		if err != nil {
			t.Fatal(err)
		}
		h := &held{qid: obs.NextQueryID(), reached: make(chan struct{}),
			release: make(chan struct{}), done: make(chan error, 2)}
		first := true
		pa.Observer = func(TraceStep) {
			if first {
				first = false
				close(h.reached)
				<-h.release
			}
		}
		ctx := context.Background()
		go func() {
			_, _, err := Run(ctx, pb, q.For(mpc.Bob), Options{})
			h.done <- err
		}()
		pa.Tag.QID = h.qid
		go func() {
			_, _, err := Run(ctx, pa, q.For(mpc.Alice), Options{})
			h.done <- err
		}()
		return h
	}
	finish := func(h *held) {
		close(h.release)
		for i := 0; i < 2; i++ {
			if err := <-h.done; err != nil {
				t.Fatalf("query %d: %v", h.qid, err)
			}
		}
	}
	live := func() map[uint64]obs.StepStatus {
		out := map[uint64]obs.StepStatus{}
		for _, st := range obs.CurrentSteps() {
			out[st.QID] = st
		}
		return out
	}

	a, b := start(0), start(1)
	<-a.reached
	<-b.reached
	now := live()
	for _, h := range []*held{a, b} {
		if st, ok := now[h.qid]; !ok || st.Party != "Alice" {
			t.Fatalf("query %d has no live step entry of its own while both run: %+v", h.qid, obs.CurrentSteps())
		}
	}

	finish(a)
	now = live()
	if _, ok := now[a.qid]; ok {
		t.Errorf("finished query %d still has a live step entry: %+v", a.qid, obs.CurrentSteps())
	}
	if _, ok := now[b.qid]; !ok {
		t.Errorf("query %d finishing cleared the entry of query %d, which is still running: %+v", a.qid, b.qid, obs.CurrentSteps())
	}

	finish(b)
	if now = live(); len(now) != 0 {
		t.Errorf("live step entries after every query finished: %+v", obs.CurrentSteps())
	}
}
