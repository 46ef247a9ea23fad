package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/ot"
	"secyan/internal/relation"
	"secyan/internal/transport"
)

// runTraced executes q on a fresh party pair under ctx and returns
// Alice's result and trace plus both parties' errors.
func runTraced(ctx context.Context, q *Query) (rel *relation.Relation, tr *Trace, aliceErr, bobErr error) {
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := Run(ctx, bob, q.For(mpc.Bob), Options{})
		if err != nil {
			bob.Conn.Close()
		}
		done <- err
	}()
	rel, tr, aliceErr = Run(ctx, alice, q.For(mpc.Alice), Options{})
	if aliceErr != nil {
		alice.Conn.Close()
	}
	bobErr = <-done
	return rel, tr, aliceErr, bobErr
}

// multiNodeQuery is a three-way chain join whose attributes are all
// outputs, so the semijoin and full-join phases run.
func multiNodeQuery(rng *rand.Rand) *Query {
	r1 := relation.New(relation.MustSchema("g1", "k"))
	r2 := relation.New(relation.MustSchema("k", "m"))
	r3 := relation.New(relation.MustSchema("m", "g2"))
	for i := 0; i < 10; i++ {
		r1.Append([]uint64{uint64(rng.Intn(3)), uint64(rng.Intn(5))}, uint64(rng.Intn(20)))
		r2.Append([]uint64{uint64(rng.Intn(5)), uint64(rng.Intn(5))}, uint64(rng.Intn(20)))
		r3.Append([]uint64{uint64(rng.Intn(5)), uint64(rng.Intn(3))}, uint64(rng.Intn(20)))
	}
	return &Query{
		Inputs: []Input{
			{Name: "R1", Owner: mpc.Alice, Schema: r1.Schema, N: r1.Len(), Rel: r1},
			{Name: "R2", Owner: mpc.Bob, Schema: r2.Schema, N: r2.Len(), Rel: r2},
			{Name: "R3", Owner: mpc.Bob, Schema: r3.Schema, N: r3.Len(), Rel: r3},
		},
		Output: []relation.Attr{"g1", "k", "m", "g2"},
	}
}

// TestTraceMatchesPlan asserts the central plan-IR contract: the trace
// of an execution is, step for step, the plan Explain renders — same
// phases, operators and nodes in the same order — and each step's
// measured traffic matches its estimate byte-exactly once the plan is
// compiled with the true output size.
func TestTraceMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	single := example11Query(rng, 12, 18)
	multi := multiNodeQuery(rng)
	raw := example11Query(rng, 9, 14)
	raw.NoLocalOptimizations = true

	for _, tc := range []struct {
		name string
		q    *Query
	}{
		{"single-survivor", single},
		{"multi-node", multi},
		{"no-local-opt", raw},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, tr, aerr, berr := runTraced(context.Background(), tc.q)
			if aerr != nil || berr != nil {
				t.Fatalf("run: alice %v, bob %v", aerr, berr)
			}
			// Recover the true output size from the executed local join, if
			// any, and re-Explain with it.
			out := 0
			for _, s := range tr.Steps {
				if s.Op == "local-join" {
					out = s.N
				}
			}
			plan, err := ExplainOpts(tc.q, testRing.Bits, Options{EstOut: out})
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Steps) != len(tr.Steps) {
				t.Fatalf("plan has %d steps, trace has %d", len(plan.Steps), len(tr.Steps))
			}
			for i, ps := range plan.Steps {
				ts := tr.Steps[i]
				if ps.Phase != ts.Phase || ps.Op != ts.Op || ps.Node != ts.Node || ps.N != ts.N {
					t.Fatalf("step %d: plan %s/%s[%s] N=%d, trace %s/%s[%s] N=%d",
						i, ps.Phase, ps.Op, ps.Node, ps.N, ts.Phase, ts.Op, ts.Node, ts.N)
				}
				if ts.Bytes != ps.EstBytes {
					t.Errorf("step %d (%s/%s[%s]): measured %d bytes, estimate %d",
						i, ps.Phase, ps.Op, ps.Node, ts.Bytes, ps.EstBytes)
				}
			}
			if tr.TotalBytes() != plan.EstBytes {
				t.Errorf("total: measured %d, estimated %d", tr.TotalBytes(), plan.EstBytes)
			}
		})
	}
}

// equivalenceFixtures are the driver shapes the equivalence and
// determinism tests run: a reduce-only query, a multi-survivor query with
// semijoin and join phases, and the no-local-optimizations variant whose
// inputs are all secret-shared.
func equivalenceFixtures() []struct {
	name string
	q    *Query
} {
	rng := rand.New(rand.NewSource(19))
	single := example11Query(rng, 12, 18)
	multi := multiNodeQuery(rng)
	raw := example11Query(rng, 9, 14)
	raw.NoLocalOptimizations = true
	return []struct {
		name string
		q    *Query
	}{
		{"single-survivor", single},
		{"multi-node", multi},
		{"no-local-opt", raw},
	}
}

// runWithStats executes q on a fresh party pair and returns Alice's
// result and trace and both transports' stats.
func runWithStats(t *testing.T, q *Query) (*relation.Relation, *Trace, transport.Stats, transport.Stats) {
	t.Helper()
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		_, _, err := Run(ctx, bob, q.For(mpc.Bob), Options{})
		if err != nil {
			bob.Conn.Close()
		}
		done <- err
	}()
	rel, tr, err := Run(ctx, alice, q.For(mpc.Alice), Options{})
	if err != nil {
		alice.Conn.Close()
	}
	if berr := <-done; err != nil || berr != nil {
		t.Fatalf("run: alice %v, bob %v", err, berr)
	}
	return rel, tr, alice.Conn.Stats(), bob.Conn.Stats()
}

// TestBackendForcedEquivalence is the exchangeability contract of the
// secure-join protocol: on every fixture the secure result equals the
// plaintext engine's. (Its name dates from when a second backend could
// be forced; PSI + OEP is now the only one.)
func TestBackendForcedEquivalence(t *testing.T) {
	for _, tc := range equivalenceFixtures() {
		t.Run(tc.name, func(t *testing.T) {
			got, _, _, _ := runWithStats(t, tc.q)
			compareResults(t, tc.name, got, plaintextReference(t, tc.q))
		})
	}
}

// TestBackendTranscriptDeterminism runs each fixture twice over identical
// inputs and requires identical results, identical traces (modulo wall
// time) and identical per-connection transport stats.
func TestBackendTranscriptDeterminism(t *testing.T) {
	for _, tc := range equivalenceFixtures() {
		t.Run(tc.name, func(t *testing.T) {
			r1, t1, a1, b1 := runWithStats(t, tc.q)
			r2, t2, a2, b2 := runWithStats(t, tc.q)
			if !relsEqual(r1, r2) {
				t.Fatal("results differ across identical runs")
			}
			if !reflect.DeepEqual(traceShape(t1), traceShape(t2)) {
				t.Fatalf("trace differs across identical runs:\n%+v\nvs\n%+v", traceShape(t1), traceShape(t2))
			}
			if a1 != a2 || b1 != b2 {
				t.Fatalf("transport stats differ across identical runs:\nalice %+v vs %+v\nbob %+v vs %+v",
					a1, a2, b1, b2)
			}
		})
	}
}

// TestBaseOTStepsMeasureTheirEstimates runs a plan that needs both OT
// directions and one that needs only Bob's. The two-direction plan runs
// the P-256 batch once — one ot.base.send and one ot.base.recv of κ
// instances — and derives the second direction, and each setup step
// moves exactly its estimate: ot.SetupCost, then ot.DeriveCost. The
// one-direction plan keeps its single P-256 step.
func TestBaseOTStepsMeasureTheirEstimates(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	for _, tc := range []struct {
		name   string
		owners [2]mpc.Role
		nodes  []string
		est    []int64
	}{
		{"two-direction", [2]mpc.Role{mpc.Alice, mpc.Bob},
			[]string{"Alice sends", "Bob sends (derived)"}, []int64{ot.SetupCost(), ot.DeriveCost()}},
		{"one-direction", [2]mpc.Role{mpc.Alice, mpc.Alice},
			[]string{"Bob sends"}, []int64{ot.SetupCost()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r1 := relation.New(relation.MustSchema("a", "k"))
			r2 := relation.New(relation.MustSchema("k", "b"))
			for i := 0; i < 6; i++ {
				r1.Append([]uint64{uint64(i % 3), uint64(i)}, uint64(i+1))
				r2.Append([]uint64{uint64(i + 2), uint64(i % 2)}, uint64(2*i+1))
			}
			q := &Query{
				Inputs: []Input{
					{Name: "R1", Owner: tc.owners[0], Schema: r1.Schema, N: r1.Len(), Rel: r1},
					{Name: "R2", Owner: tc.owners[1], Schema: r2.Schema, N: r2.Len(), Rel: r2},
				},
				Output: []relation.Attr{"a"},
			}
			send0, _ := obs.KernelTotal("ot.base.send")
			recv0, _ := obs.KernelTotal("ot.base.recv")
			got, tr, aerr, berr := runTraced(context.Background(), q)
			if aerr != nil || berr != nil {
				t.Fatalf("run: alice %v, bob %v", aerr, berr)
			}
			compareResults(t, tc.name, got, plaintextReference(t, q))
			send1, _ := obs.KernelTotal("ot.base.send")
			recv1, _ := obs.KernelTotal("ot.base.recv")
			if send1-send0 != 128 || recv1-recv0 != 128 {
				t.Fatalf("base OTs: %d sent and %d received instances, want one batch of 128 each",
					send1-send0, recv1-recv0)
			}
			var setup []TraceStep
			for _, s := range tr.Steps {
				if s.Op == "base-ot" {
					setup = append(setup, s)
				}
			}
			if len(setup) != len(tc.nodes) {
				t.Fatalf("%d base-ot steps, want %d", len(setup), len(tc.nodes))
			}
			for i, s := range setup {
				if s.Node != tc.nodes[i] || s.EstBytes != tc.est[i] || s.Bytes != tc.est[i] {
					t.Errorf("base-ot step %d: %q estimated %d, measured %d; want %q at %d",
						i, s.Node, s.EstBytes, s.Bytes, tc.nodes[i], tc.est[i])
				}
			}
		})
	}
}

// TestOPRFSetupStepsMeasureTheirEstimates runs a two-party join whose
// cross-party PSIs go one way (one output attribute: the reduce phase's
// semijoin only) and one whose PSIs go both ways (both relations survive:
// the semijoin phase runs one PSI in each orientation). Each orientation
// gets one oprf-base step, sent by the PSI sender, that moves exactly
// ot.KKRTSetupCost (2 048 B) as estimated, and every setup, reduce and
// semijoin step moves its estimate.
func TestOPRFSetupStepsMeasureTheirEstimates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		output []relation.Attr
		nodes  []string
	}{
		{"one-orientation", []relation.Attr{"a"}, []string{"Bob sends (KKRT)"}},
		{"two-orientations", []relation.Attr{"a", "k", "b"}, []string{"Alice sends (KKRT)", "Bob sends (KKRT)"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 70
			r1 := relation.New(relation.MustSchema("a", "k"))
			r2 := relation.New(relation.MustSchema("k", "b"))
			for i := 0; i < n; i++ {
				r1.Append([]uint64{uint64(i % 3), uint64(i)}, uint64(i+1))
				r2.Append([]uint64{uint64(2 * i), uint64(i % 4)}, uint64(2*i+1))
			}
			q := &Query{
				Inputs: []Input{
					{Name: "R1", Owner: mpc.Alice, Schema: r1.Schema, N: n, Rel: r1},
					{Name: "R2", Owner: mpc.Bob, Schema: r2.Schema, N: n, Rel: r2},
				},
				Output: tc.output,
			}
			got, tr, aerr, berr := runTraced(context.Background(), q)
			if aerr != nil || berr != nil {
				t.Fatalf("run: alice %v, bob %v", aerr, berr)
			}
			compareResults(t, tc.name, got, plaintextReference(t, q))
			var setup []TraceStep
			for _, s := range tr.Steps {
				if s.Op == "oprf-base" {
					setup = append(setup, s)
				}
				if s.Phase != "join" && s.Phase != "reveal" && s.Bytes != s.EstBytes {
					t.Errorf("%s %s %s: moved %d bytes, estimated %d", s.Phase, s.Op, s.Node, s.Bytes, s.EstBytes)
				}
			}
			if len(setup) != len(tc.nodes) {
				t.Fatalf("%d oprf-base steps, want %d", len(setup), len(tc.nodes))
			}
			for i, s := range setup {
				if s.Phase != "setup" || s.Node != tc.nodes[i] || s.EstBytes != ot.KKRTSetupCost() || s.Bytes != 2048 {
					t.Errorf("oprf-base step %d: %s %q estimated %d, measured %d; want setup %q at 2048",
						i, s.Phase, s.Node, s.EstBytes, s.Bytes, tc.nodes[i])
				}
			}
		})
	}
}

// TestRunMatchesExplainWithoutEstOut asserts the step *sequence* is
// independent of the estOut assumption, so Run's estOut=0 compilation
// matches any Explain of the same query.
func TestRunMatchesExplainWithoutEstOut(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := multiNodeQuery(rng)
	p0, err := ExplainOpts(q, testRing.Bits, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p9, err := ExplainOpts(q, testRing.Bits, Options{EstOut: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(p0.Steps) != len(p9.Steps) {
		t.Fatalf("step sequence depends on estOut: %d vs %d steps", len(p0.Steps), len(p9.Steps))
	}
	for i := range p0.Steps {
		a, b := p0.Steps[i], p9.Steps[i]
		if a.Phase != b.Phase || a.Op != b.Op || a.Node != b.Node {
			t.Fatalf("step %d differs: %s/%s[%s] vs %s/%s[%s]", i, a.Phase, a.Op, a.Node, b.Phase, b.Op, b.Node)
		}
	}
}

// TestCancellationMidProtocol cancels the shared context once Alice
// finishes her first reduce step; both parties must return promptly with
// an error labeled by the step that was interrupted and attributable to
// the cancellation.
func TestCancellationMidProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := example11Query(rng, 12, 18)
	q.NoLocalOptimizations = true // force circuit traffic so Bob blocks mid-step

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	alice.Observer = func(s TraceStep) {
		if s.Phase == "reduce" {
			cancel()
		}
	}

	type res struct {
		who string
		err error
	}
	ch := make(chan res, 2)
	go func() {
		_, _, err := Run(ctx, alice, q.For(mpc.Alice), Options{})
		ch <- res{"alice", err}
	}()
	go func() {
		_, _, err := Run(ctx, bob, q.For(mpc.Bob), Options{})
		ch <- res{"bob", err}
	}()
	for i := 0; i < 2; i++ {
		select {
		case r := <-ch:
			if r.err == nil {
				t.Fatalf("%s: run completed despite cancellation", r.who)
			}
			if !errors.Is(r.err, context.Canceled) {
				t.Fatalf("%s: error not attributed to the context: %v", r.who, r.err)
			}
			if !strings.Contains(r.err.Error(), "/") || !strings.Contains(r.err.Error(), "[") {
				t.Fatalf("%s: error not labeled with phase/op[node]: %v", r.who, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cancellation did not unblock the parties")
		}
	}
}

// traceShape strips the nondeterministic fields (Elapsed, Blocked),
// keeping phase, operator, node, size and the measured
// bytes/messages/rounds.
func traceShape(tr *Trace) []TraceStep {
	steps := make([]TraceStep, len(tr.Steps))
	for i, s := range tr.Steps {
		s.Elapsed, s.Blocked = 0, 0
		steps[i] = s
	}
	return steps
}
