package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/transport"
)

// Backend-equivalence suite (DESIGN.md §13): every secure-join backend
// must compute the same query results as the cost-based default, the
// default must be the cheapest applicable bid of every auction, and the
// gc transcripts must be as deterministic and oblivious as the PSI+OEP
// path they replace. `make race-backends` repeats this suite
// under the race detector.

// backendFixtures are the driver shapes the suite runs: a reduce-only
// query, a multi-survivor query with semijoin + join phases, and the
// no-local-optimizations variant whose inputs are all secret-shared
// (exercising the shared-child auction arm).
func backendFixtures(t *testing.T) []struct {
	name string
	q    *Query
	rels []*relation.Relation
} {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	single, singleRels := example11Query(rng, 12, 18)
	multi, multiRels := multiNodeQuery(rng)
	raw, rawRels := example11Query(rng, 9, 14)
	raw.NoLocalOptimizations = true
	return []struct {
		name string
		q    *Query
		rels []*relation.Relation
	}{
		{"single-survivor", single, singleRels},
		{"multi-node", multi, multiRels},
		{"no-local-opt", raw, rawRels},
	}
}

// runBackend executes q with a forced backend on a fresh party pair and
// returns Alice's result, trace and both transports' stats.
func runBackend(t *testing.T, q *Query, rels []*relation.Relation, b BackendID) (*relation.Relation, *Trace, transport.Stats, transport.Stats) {
	t.Helper()
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	ctx := context.Background()
	opts := Options{Backend: b}
	done := make(chan error, 1)
	go func() {
		_, _, err := Run(ctx, bob, splitQuery(q, rels, mpc.Bob), opts)
		if err != nil {
			bob.Conn.Close()
		}
		done <- err
	}()
	rel, tr, err := Run(ctx, alice, splitQuery(q, rels, mpc.Alice), opts)
	if err != nil {
		t.Fatalf("alice run (backend %q): %v", b, err)
	}
	if berr := <-done; berr != nil {
		t.Fatalf("bob run (backend %q): %v", b, berr)
	}
	return rel, tr, alice.Conn.Stats(), bob.Conn.Stats()
}

// TestBackendForcedEquivalence is the central exchangeability contract:
// forcing each backend yields exactly the results of the cost-based
// default on every fixture (which in turn match the plaintext engine).
func TestBackendForcedEquivalence(t *testing.T) {
	for _, tc := range backendFixtures(t) {
		t.Run(tc.name, func(t *testing.T) {
			want := plaintextReference(t, tc.q, tc.rels)
			base, _, _, _ := runBackend(t, tc.q, tc.rels, "")
			compareResults(t, tc.name+"/auto", base, want)
			for _, b := range []BackendID{BackendPSIOEP, BackendGC} {
				got, _, _, _ := runBackend(t, tc.q, tc.rels, b)
				compareResults(t, tc.name+"/"+string(b), got, want)
			}
		})
	}
}

// TestBackendDefaultIsArgmin pins the auction rule: with no forced
// backend, every recorded choice is the minimum-estimate bid (first
// wins on ties), and exactly one alternative is marked chosen.
func TestBackendDefaultIsArgmin(t *testing.T) {
	for _, tc := range backendFixtures(t) {
		plan, err := ExplainOpts(tc.q, testRing.Bits, Options{})
		if err != nil {
			t.Fatal(err)
		}
		audited := 0
		for _, s := range plan.Steps {
			if len(s.Alternatives) == 0 {
				continue
			}
			audited++
			chosen := 0
			for _, a := range s.Alternatives {
				if a.Chosen {
					chosen++
					if a.Backend != s.Backend {
						t.Errorf("%s: step %s %s: chosen alternative %s != step backend %s",
							tc.name, s.Op, s.Node, a.Backend, s.Backend)
					}
					if a.EstBytes != s.EstBytes {
						t.Errorf("%s: step %s %s: chosen estimate %d != step estimate %d",
							tc.name, s.Op, s.Node, a.EstBytes, s.EstBytes)
					}
				}
				if a.EstBytes < s.EstBytes {
					t.Errorf("%s: step %s %s: backend %s at %d bytes beats chosen %s at %d",
						tc.name, s.Op, s.Node, a.Backend, a.EstBytes, s.Backend, s.EstBytes)
				}
			}
			if chosen != 1 {
				t.Errorf("%s: step %s %s: %d alternatives marked chosen, want 1",
					tc.name, s.Op, s.Node, chosen)
			}
		}
		if audited == 0 {
			t.Errorf("%s: no step recorded a backend auction", tc.name)
		}
	}
}

// TestBackendForcedPlanRecorded checks that forcing a backend makes it
// win every auction it bid in, and that its estimate is taken from its
// own bid (not the cheapest one's).
func TestBackendForcedPlanRecorded(t *testing.T) {
	for _, tc := range backendFixtures(t) {
		for _, b := range []BackendID{BackendPSIOEP, BackendGC} {
			plan, err := ExplainOpts(tc.q, testRing.Bits, Options{Backend: b})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range plan.Steps {
				if len(s.Alternatives) == 0 {
					continue
				}
				bid := false
				for _, a := range s.Alternatives {
					if a.Backend == b {
						bid = true
						if !a.Chosen {
							t.Errorf("%s: forced %s lost its own auction at step %s %s (chose %s)",
								tc.name, b, s.Op, s.Node, s.Backend)
						}
						if s.EstBytes != a.EstBytes {
							t.Errorf("%s: forced %s at step %s %s: step estimate %d != bid %d",
								tc.name, b, s.Op, s.Node, s.EstBytes, a.EstBytes)
						}
					}
				}
				if bid && s.Backend != b {
					t.Errorf("%s: forced %s applicable at step %s %s but plan chose %s",
						tc.name, b, s.Op, s.Node, s.Backend)
				}
			}
		}
	}
}

// TestBackendTranscriptDeterminism runs each forced backend twice over
// identical inputs and requires identical traces (modulo wall time) and
// identical per-connection transport stats: the new backends must be as
// replayable as the PSI+OEP path.
func TestBackendTranscriptDeterminism(t *testing.T) {
	for _, tc := range backendFixtures(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, b := range []BackendID{BackendPSIOEP, BackendGC} {
				r1, t1, a1, b1 := runBackend(t, tc.q, tc.rels, b)
				r2, t2, a2, b2 := runBackend(t, tc.q, tc.rels, b)
				if !relsEqual(r1, r2) {
					t.Fatalf("backend %s: results differ across identical runs", b)
				}
				if !reflect.DeepEqual(traceShape(t1), traceShape(t2)) {
					t.Fatalf("backend %s: trace differs across identical runs:\n%+v\nvs\n%+v",
						b, traceShape(t1), traceShape(t2))
				}
				if a1 != a2 || b1 != b2 {
					t.Fatalf("backend %s: transport stats differ across identical runs:\nalice %+v vs %+v\nbob %+v vs %+v",
						b, a1, a2, b1, b2)
				}
			}
		})
	}
}

// TestBackendObliviousness extends the transcript-size security check
// to the forced backends: two executions over different private data of
// identical public dimensions must exchange identical byte counts.
func TestBackendObliviousness(t *testing.T) {
	for _, b := range []BackendID{BackendPSIOEP, BackendGC} {
		run := func(seed int64) (transport.Stats, transport.Stats) {
			rng := rand.New(rand.NewSource(seed))
			q, rels := example11Query(rng, 10, 16)
			_, _, sa, sb := runBackend(t, q, rels, b)
			return sa, sb
		}
		a1, b1 := run(101)
		a2, b2 := run(202)
		if a1.BytesSent != a2.BytesSent || a1.BytesReceived != a2.BytesReceived ||
			b1.BytesSent != b2.BytesSent || b1.BytesReceived != b2.BytesReceived {
			t.Fatalf("backend %s: transcript sizes depend on private data: alice (%d,%d) vs (%d,%d)",
				b, a1.BytesSent, a1.BytesReceived, a2.BytesSent, a2.BytesReceived)
		}
	}
}

// TestBackendEstimatesMatchMeasured runs each fixture with each forced
// backend and checks the reduce-phase estimates against measured bytes
// step by step — the Estimate contract must hold for every backend, not
// just the default.
func TestBackendEstimatesMatchMeasured(t *testing.T) {
	for _, tc := range backendFixtures(t) {
		for _, b := range []BackendID{"", BackendPSIOEP, BackendGC} {
			_, tr, _, _ := runBackend(t, tc.q, tc.rels, b)
			for _, s := range tr.Steps {
				if s.Phase != "reduce" && s.Phase != "semijoin" {
					continue
				}
				if s.EstBytes != s.Bytes {
					t.Errorf("%s backend %q: step %s %s (backend %s): estimated %d bytes, measured %d",
						tc.name, b, s.Op, s.Node, s.Backend, s.EstBytes, s.Bytes)
				}
			}
		}
	}
}

// TestBackendParse pins the flag-parsing surface.
func TestBackendParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want BackendID
		ok   bool
	}{
		{"", "", true},
		{"auto", "", true},
		{"psi-oep", BackendPSIOEP, true},
		{"bifrost", "", false},
		{"gc", BackendGC, true},
		{"local", "", false},
		{"yao", "", false},
	} {
		got, err := ParseBackend(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseBackend(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseBackend(%q) accepted", tc.in)
		}
	}
}
