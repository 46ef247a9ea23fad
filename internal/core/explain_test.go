package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/relation"
)

func explainExampleQuery(t *testing.T, noOpt bool) *Query {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	q := example11Query(rng, 12, 18)
	q.NoLocalOptimizations = noOpt
	return q
}

func TestExplainStructure(t *testing.T) {
	q := explainExampleQuery(t, false)
	plan, err := ExplainOpts(q, 32, Options{EstOut: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) == 0 || plan.EstBytes <= 0 {
		t.Fatalf("empty plan: %+v", plan)
	}
	phases := map[string]int{}
	for _, s := range plan.Steps {
		phases[s.Phase]++
		if s.EstBytes < 0 {
			t.Fatalf("negative estimate in %+v", s)
		}
	}
	// Example 1.1 collapses to a single survivor: input, reduce and a
	// final reveal must appear; no join phase.
	for _, want := range []string{"input", "reduce", "reveal"} {
		if phases[want] == 0 {
			t.Fatalf("missing phase %q: %v", want, phases)
		}
	}
	if phases["join"] != 0 {
		t.Fatalf("single-survivor query must have no join phase: %v", phases)
	}
	if len(plan.Remaining) != 1 {
		t.Fatalf("remaining: %v", plan.Remaining)
	}
}

func TestExplainMultiNodeHasJoinPhase(t *testing.T) {
	r1 := relation.MustSchema("g1", "k")
	r2 := relation.MustSchema("k", "g2")
	q := &Query{
		Inputs: []Input{
			{Name: "R1", Owner: mpc.Alice, Schema: r1, N: 10},
			{Name: "R2", Owner: mpc.Bob, Schema: r2, N: 10},
		},
		Output: []relation.Attr{"g1", "k", "g2"},
	}
	plan, err := ExplainOpts(q, 32, Options{EstOut: 25})
	if err != nil {
		t.Fatal(err)
	}
	hasJoin := false
	for _, s := range plan.Steps {
		if s.Phase == "join" {
			hasJoin = true
		}
	}
	if !hasJoin || len(plan.Remaining) != 2 {
		t.Fatalf("expected join phase over 2 survivors: %+v", plan)
	}
}

// TestExplainTracksMeasuredCost requires the estimate to be within a
// factor of 3 of the measured traffic — a sanity band, not an exactness
// claim (round paddings and OT batching are approximated).
func TestExplainTracksMeasuredCost(t *testing.T) {
	q := explainExampleQuery(t, false)
	plan, err := ExplainOpts(q, testRing.Bits, Options{})
	if err != nil {
		t.Fatal(err)
	}

	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	_, _, err = mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*relation.Relation, error) { return runQuery(p, q.For(mpc.Alice)) },
		func(p *mpc.Party) (*relation.Relation, error) { return runQuery(p, q.For(mpc.Bob)) },
	)
	if err != nil {
		t.Fatal(err)
	}
	measured := alice.Conn.Stats().TotalBytes()
	ratio := float64(plan.EstBytes) / float64(measured)
	if ratio < 1.0/3 || ratio > 3 {
		t.Fatalf("estimate %d vs measured %d (ratio %.2f) outside the 3x band", plan.EstBytes, measured, ratio)
	}
	t.Logf("explain estimate %d bytes, measured %d bytes (ratio %.2f)", plan.EstBytes, measured, ratio)
}

func TestExplainOptimizationVisible(t *testing.T) {
	qOpt := explainExampleQuery(t, false)
	qRaw := explainExampleQuery(t, true)
	pOpt, err := ExplainOpts(qOpt, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pRaw, err := ExplainOpts(qRaw, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pOpt.EstBytes >= pRaw.EstBytes {
		t.Fatalf("optimized plan not cheaper: %d vs %d", pOpt.EstBytes, pRaw.EstBytes)
	}
}

func TestExplainFormat(t *testing.T) {
	q := explainExampleQuery(t, false)
	plan, err := ExplainOpts(q, 32, Options{EstOut: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	plan.Format(&buf)
	out := buf.String()
	for _, want := range []string{"root:", "phase", "reduce", "total estimated communication"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainRejectsBadQueries(t *testing.T) {
	q := &Query{Inputs: []Input{
		{Name: "a", Schema: relation.MustSchema("x", "y"), N: 1},
		{Name: "b", Schema: relation.MustSchema("y", "z"), N: 1},
		{Name: "c", Schema: relation.MustSchema("z", "x"), N: 1},
	}}
	if _, err := ExplainOpts(q, 32, Options{}); err == nil {
		t.Fatal("cyclic query explained")
	}
}
