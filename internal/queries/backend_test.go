package queries

import (
	"testing"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/share"
	"secyan/internal/tpch"
)

// Backend-equivalence at TPC-H level (the acceptance shapes of DESIGN.md
// §13): Q3, Q10 and Q18 must produce identical results under every
// forced secure-join backend, and the cost-based default must pick the
// cheapest applicable bid of every auction.

// runSpecBackend executes one spec with a forced backend on a fresh
// in-process pair.
func runSpecBackend(t *testing.T, spec Spec, db *tpch.DB, b core.BackendID) *relation.Relation {
	t.Helper()
	alice, bob := mpc.Pair(share.Ring{Bits: 32})
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	run := func(p *mpc.Party) (*relation.Relation, error) {
		return spec.SecureOpts(p, db, core.Options{Backend: b})
	}
	res, _, err := mpc.Run2PC(alice, bob, run, run)
	if err != nil {
		t.Fatalf("%s secure (backend %q): %v", spec.Name, b, err)
	}
	return res
}

// TestTPCHBackendEquivalence forces each backend over Q3, Q10 and Q18 at
// a tiny scale and requires results identical to the plaintext engine
// (and hence to each other).
func TestTPCHBackendEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full secure TPC-H runs skipped in -short mode")
	}
	db := tpch.Generate(tpch.Config{ScaleMB: 0.04, Seed: 42})
	for _, spec := range []Spec{Q3(), Q10(), Q18WithThreshold(120)} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			plain, err := spec.Plain(db, 32)
			if err != nil {
				t.Fatalf("%s plain: %v", spec.Name, err)
			}
			for _, b := range []core.BackendID{"", core.BackendPSIOEP, core.BackendGC} {
				got := runSpecBackend(t, spec, db, b)
				compare(t, spec.Name+"/"+string(b), got, plain)
			}
		})
	}
}

// TestTPCHBackendChoicesRecorded checks the plan surface over the real
// query shapes: every semijoin/aggregate step of Q3/Q10/Q18 records its
// auction, and the chosen backend is the cheapest bid.
func TestTPCHBackendChoicesRecorded(t *testing.T) {
	db := tpch.Generate(tpch.Config{ScaleMB: 0.12, Seed: 42})
	for _, spec := range []Spec{Q3(), Q10(), Q18()} {
		q, err := PlanFor(spec, db)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		plan, err := core.ExplainOpts(q, 32, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		audited := 0
		for _, s := range plan.Steps {
			for _, a := range s.Alternatives {
				audited++
				if a.Chosen && a.Backend != s.Backend {
					t.Errorf("%s: step %s %s: chosen %s != step backend %s",
						spec.Name, s.Op, s.Node, a.Backend, s.Backend)
				}
				if a.EstBytes < s.EstBytes {
					t.Errorf("%s: step %s %s: %s at %d bytes beats chosen %s at %d",
						spec.Name, s.Op, s.Node, a.Backend, a.EstBytes, s.Backend, s.EstBytes)
				}
			}
		}
		if audited == 0 {
			t.Errorf("%s: no backend auctions recorded", spec.Name)
		}
	}
}
