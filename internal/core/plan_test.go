package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"secyan/internal/mpc"
	"secyan/internal/relation"
)

// splitQuery attaches each input relation on its owner's side only.
func splitQuery(q *Query, rels []*relation.Relation, role mpc.Role) *Query {
	cq := &Query{Output: q.Output, NoLocalOptimizations: q.NoLocalOptimizations}
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

// runTraced executes q on a fresh party pair under ctx and returns
// Alice's result and trace plus both parties' errors.
func runTraced(ctx context.Context, q *Query, rels []*relation.Relation) (rel *relation.Relation, tr *Trace, aliceErr, bobErr error) {
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := Run(ctx, bob, splitQuery(q, rels, mpc.Bob), Options{})
		if err != nil {
			bob.Conn.Close()
		}
		done <- err
	}()
	rel, tr, aliceErr = Run(ctx, alice, splitQuery(q, rels, mpc.Alice), Options{})
	if aliceErr != nil {
		alice.Conn.Close()
	}
	bobErr = <-done
	return rel, tr, aliceErr, bobErr
}

// multiNodeQuery is a three-way chain join whose attributes are all
// outputs, so the semijoin and full-join phases run.
func multiNodeQuery(rng *rand.Rand) (*Query, []*relation.Relation) {
	r1 := relation.New(relation.MustSchema("g1", "k"))
	r2 := relation.New(relation.MustSchema("k", "m"))
	r3 := relation.New(relation.MustSchema("m", "g2"))
	for i := 0; i < 10; i++ {
		r1.Append([]uint64{uint64(rng.Intn(3)), uint64(rng.Intn(5))}, uint64(rng.Intn(20)))
		r2.Append([]uint64{uint64(rng.Intn(5)), uint64(rng.Intn(5))}, uint64(rng.Intn(20)))
		r3.Append([]uint64{uint64(rng.Intn(5)), uint64(rng.Intn(3))}, uint64(rng.Intn(20)))
	}
	q := &Query{
		Inputs: []Input{
			{Name: "R1", Owner: mpc.Alice, Schema: r1.Schema, N: r1.Len()},
			{Name: "R2", Owner: mpc.Bob, Schema: r2.Schema, N: r2.Len()},
			{Name: "R3", Owner: mpc.Bob, Schema: r3.Schema, N: r3.Len()},
		},
		Output: []relation.Attr{"g1", "k", "m", "g2"},
	}
	return q, []*relation.Relation{r1, r2, r3}
}

// TestTraceMatchesPlan asserts the central plan-IR contract: the trace
// of an execution is, step for step, the plan Explain renders — same
// phases, operators and nodes in the same order — and each step's
// measured traffic matches its Estimate byte-exactly once the plan is
// compiled with the true output size.
func TestTraceMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	single, singleRels := example11Query(rng, 12, 18)
	multi, multiRels := multiNodeQuery(rng)
	raw, rawRels := example11Query(rng, 9, 14)
	raw.NoLocalOptimizations = true

	for _, tc := range []struct {
		name string
		q    *Query
		rels []*relation.Relation
	}{
		{"single-survivor", single, singleRels},
		{"multi-node", multi, multiRels},
		{"no-local-opt", raw, rawRels},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, tr, aerr, berr := runTraced(context.Background(), tc.q, tc.rels)
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
				if ts.Bytes != ps.Estimate() {
					t.Errorf("step %d (%s/%s[%s]): measured %d bytes, estimate %d",
						i, ps.Phase, ps.Op, ps.Node, ts.Bytes, ps.Estimate())
				}
			}
			if tr.TotalBytes() != plan.EstBytes {
				t.Errorf("total: measured %d, estimated %d", tr.TotalBytes(), plan.EstBytes)
			}
		})
	}
}

// TestRunMatchesExplainWithoutEstOut asserts the step *sequence* is
// independent of the estOut assumption, so Run's estOut=0 compilation
// matches any Explain of the same query.
func TestRunMatchesExplainWithoutEstOut(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q, _ := multiNodeQuery(rng)
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
	q, rels := example11Query(rng, 12, 18)
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
		_, _, err := Run(ctx, alice, splitQuery(q, rels, mpc.Alice), Options{})
		ch <- res{"alice", err}
	}()
	go func() {
		_, _, err := Run(ctx, bob, splitQuery(q, rels, mpc.Bob), Options{})
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
