package queries

import (
	"testing"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/share"
	"secyan/internal/tpch"
)

// runSpecTraced executes the spec's full 2PC protocol while collecting
// Alice's per-step trace through Party.Observer.
func runSpecTraced(t *testing.T, spec Spec, db *tpch.DB) []core.TraceStep {
	t.Helper()
	if testing.Short() {
		t.Skipf("%s: full secure TPC-H run skipped in -short mode", spec.Name)
	}
	ring := share.Ring{Bits: 32}
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	var steps []core.TraceStep
	alice.Observer = func(s core.TraceStep) { steps = append(steps, s) }
	_, _, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*relation.Relation, error) { return spec.SecureOpts(p, db, core.Options{}) },
		func(p *mpc.Party) (*relation.Relation, error) { return spec.SecureOpts(p, db, core.Options{}) },
	)
	if err != nil {
		t.Fatalf("%s secure: %v", spec.Name, err)
	}
	return steps
}

// TestTraceMatchesEstimates checks the ISSUE acceptance criterion on the
// real TPC-H queries: the executed trace follows the compiled plan step
// for step, and measured per-step communication stays within 15% of the
// plan's Estimate once the true output size is plugged in. (Tiny steps
// get a small absolute slack so fixed protocol framing cannot dominate
// the relative bound.)
func TestTraceMatchesEstimates(t *testing.T) {
	db := testDB(t)
	for _, spec := range []Spec{Q3(), Q10(), Q18WithThreshold(120)} {
		t.Run(spec.Name, func(t *testing.T) {
			steps := runSpecTraced(t, spec, db)
			q, err := PlanFor(spec, db)
			if err != nil {
				t.Fatal(err)
			}
			out := 0
			for _, s := range steps {
				if s.Op == "local-join" {
					out = s.N
				}
			}
			plan, err := core.ExplainOpts(q, 32, core.Options{EstOut: out})
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Steps) != len(steps) {
				t.Fatalf("plan has %d steps, trace has %d", len(plan.Steps), len(steps))
			}
			for i, ps := range plan.Steps {
				ts := steps[i]
				if ps.Phase != ts.Phase || ps.Op != ts.Op || ps.Node != ts.Node {
					t.Fatalf("step %d: plan %s/%s[%s], trace %s/%s[%s]",
						i, ps.Phase, ps.Op, ps.Node, ts.Phase, ts.Op, ts.Node)
				}
				est := ps.Estimate()
				diff := ts.Bytes - est
				if diff < 0 {
					diff = -diff
				}
				slack := est * 15 / 100
				if slack < 64 {
					slack = 64
				}
				if diff > slack {
					t.Errorf("step %d (%s/%s[%s]): measured %d bytes, estimate %d (Δ %d > %d)",
						i, ps.Phase, ps.Op, ps.Node, ts.Bytes, est, diff, slack)
				}
			}
		})
	}
}
