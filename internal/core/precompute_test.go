package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/relation"
)

// runPrecomputed mirrors runTraced but executes the offline phase on
// both parties first. It returns Alice's result plus her offline and
// online traces.
func runPrecomputed(t *testing.T, q *Query, rels []*relation.Relation) (*relation.Relation, *Trace, *Trace) {
	t.Helper()
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	ctx := context.Background()

	offErr := make(chan error, 1)
	go func() {
		_, err := PrecomputeOpts(ctx, bob, splitQuery(q, rels, mpc.Bob), Options{})
		if err != nil {
			bob.Conn.Close()
		}
		offErr <- err
	}()
	offTr, err := PrecomputeOpts(ctx, alice, splitQuery(q, rels, mpc.Alice), Options{})
	if err != nil {
		t.Fatalf("alice precompute: %v", err)
	}
	if berr := <-offErr; berr != nil {
		t.Fatalf("bob precompute: %v", berr)
	}

	onErr := make(chan error, 1)
	go func() {
		_, _, err := Run(ctx, bob, splitQuery(q, rels, mpc.Bob), Options{})
		if err != nil {
			bob.Conn.Close()
		}
		onErr <- err
	}()
	rel, onTr, err := Run(ctx, alice, splitQuery(q, rels, mpc.Alice), Options{})
	if err != nil {
		t.Fatalf("alice run: %v", err)
	}
	if berr := <-onErr; berr != nil {
		t.Fatalf("bob run: %v", berr)
	}
	return rel, offTr, onTr
}

func relsEqual(a, b *relation.Relation) bool {
	if a.Len() != b.Len() || !reflect.DeepEqual(a.Schema, b.Schema) {
		return false
	}
	return reflect.DeepEqual(a.Tuples, b.Tuples) && reflect.DeepEqual(a.Annot, b.Annot)
}

// counterDelta reads the named counter from the default obs registry.
func counterValue(t *testing.T, name string) int64 {
	t.Helper()
	v, ok := obs.Default().Snapshot()[name].(int64)
	if !ok {
		t.Fatalf("counter %q not registered", name)
	}
	return v
}

// TestPrecomputeMatchesDirect is the end-to-end contract of the
// offline/online split: a precomputed execution returns the identical
// result through the identical online step sequence, every plan-primed
// step's online traffic lands exactly on EstOnlineBytes, and — for a
// fully-primed (single-survivor) query — nothing falls back: zero pool
// and zero circuit-queue misses.
func TestPrecomputeMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	single, singleRels := example11Query(rng, 12, 18)
	multi, multiRels := multiNodeQuery(rng)
	raw, rawRels := example11Query(rng, 9, 14)
	raw.NoLocalOptimizations = true

	for _, tc := range []struct {
		name       string
		q          *Query
		rels       []*relation.Relation
		fullPrimed bool // every online step with OT/circuit work is plan-primed
	}{
		{"single-survivor", single, singleRels, true},
		{"multi-node", multi, multiRels, false},
		{"no-local-opt", raw, rawRels, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, directTr, aerr, berr := runTraced(context.Background(), tc.q, tc.rels)
			if aerr != nil || berr != nil {
				t.Fatalf("direct run: alice %v, bob %v", aerr, berr)
			}

			obs.Enable()
			defer obs.Disable()
			poolMiss0 := counterValue(t, "secyan_ot_pool_miss_total")
			circMiss0 := counterValue(t, "secyan_mpc_precircuit_miss_total")
			circHit0 := counterValue(t, "secyan_mpc_precircuit_hit_total")

			got, offTr, onTr := runPrecomputed(t, tc.q, tc.rels)
			if !relsEqual(got, want) {
				t.Fatalf("precomputed result differs:\ngot  %v %v\nwant %v %v",
					got.Tuples, got.Annot, want.Tuples, want.Annot)
			}

			// The online trace is, step for step, the direct trace: same
			// operators over the same nodes and sizes in the same order.
			if len(onTr.Steps) != len(directTr.Steps) {
				t.Fatalf("online trace has %d steps, direct has %d", len(onTr.Steps), len(directTr.Steps))
			}
			for i := range onTr.Steps {
				os, ds := onTr.Steps[i], directTr.Steps[i]
				if os.Phase != ds.Phase || os.Op != ds.Op || os.Node != ds.Node || os.N != ds.N {
					t.Fatalf("step %d: online %s/%s[%s] N=%d, direct %s/%s[%s] N=%d",
						i, os.Phase, os.Op, os.Node, os.N, ds.Phase, ds.Op, ds.Node, ds.N)
				}
			}

			// Offline trace: each recorded step moves exactly its
			// EstOfflineBytes (base OTs or correction matrices).
			for i, s := range offTr.Steps {
				if s.Phase != "offline" {
					t.Fatalf("offline step %d has phase %q", i, s.Phase)
				}
				if s.Bytes != s.EstBytes {
					t.Errorf("offline step %d (%s[%s]): measured %d bytes, estimate %d",
						i, s.Op, s.Node, s.Bytes, s.EstBytes)
				}
			}

			// Online trace: re-Explain with the true output size; every step
			// must land byte-exactly on its EstOnlineBytes (join-phase steps
			// have no demands, so there EstOnlineBytes == EstBytes, which the
			// plan/trace test already pins for direct runs).
			out := 0
			for _, s := range onTr.Steps {
				if s.Op == "local-join" {
					out = s.N
				}
			}
			plan, err := ExplainOpts(tc.q, testRing.Bits, Options{EstOut: out})
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Steps) != len(onTr.Steps) {
				t.Fatalf("plan has %d steps, online trace has %d", len(plan.Steps), len(onTr.Steps))
			}
			var offTotal int64
			for i := range plan.Steps {
				ps, ts := &plan.Steps[i], onTr.Steps[i]
				if ts.Bytes != ps.EstOnlineBytes {
					t.Errorf("step %d (%s/%s[%s]): online measured %d bytes, EstOnlineBytes %d",
						i, ps.Phase, ps.Op, ps.Node, ts.Bytes, ps.EstOnlineBytes)
				}
				offTotal += ps.EstOfflineBytes
			}
			if got := offTr.TotalBytes(); got != offTotal {
				t.Errorf("offline total: measured %d, plan EstOfflineBytes %d", got, offTotal)
			}
			if plan.EstOfflineBytes != offTotal || plan.EstOnlineBytes <= 0 {
				t.Errorf("plan totals inconsistent: offline %d (sum %d), online %d",
					plan.EstOfflineBytes, offTotal, plan.EstOnlineBytes)
			}

			if tc.fullPrimed {
				if d := counterValue(t, "secyan_ot_pool_miss_total") - poolMiss0; d != 0 {
					t.Errorf("fully-primed run recorded %d OT pool misses", d)
				}
				if d := counterValue(t, "secyan_mpc_precircuit_miss_total") - circMiss0; d != 0 {
					t.Errorf("fully-primed run recorded %d circuit-queue misses", d)
				}
			}
			if d := counterValue(t, "secyan_mpc_precircuit_hit_total") - circHit0; d <= 0 {
				t.Errorf("precomputed run served no circuits from the queue")
			}
		})
	}
}

// TestPrecomputeFallback runs a query different from the precomputed one:
// the first mismatch drops the staged material and the direct protocols
// must still produce the correct result.
func TestPrecomputeFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	primedQ, primedRels := multiNodeQuery(rng)
	runQ, runRels := example11Query(rng, 12, 18)

	want, _, aerr, berr := runTraced(context.Background(), runQ, runRels)
	if aerr != nil || berr != nil {
		t.Fatalf("direct run: alice %v, bob %v", aerr, berr)
	}

	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	ctx := context.Background()

	offErr := make(chan error, 1)
	go func() {
		_, err := PrecomputeOpts(ctx, bob, splitQuery(primedQ, primedRels, mpc.Bob), Options{})
		if err != nil {
			bob.Conn.Close()
		}
		offErr <- err
	}()
	if _, err := PrecomputeOpts(ctx, alice, splitQuery(primedQ, primedRels, mpc.Alice), Options{}); err != nil {
		t.Fatalf("alice precompute: %v", err)
	}
	if berr := <-offErr; berr != nil {
		t.Fatalf("bob precompute: %v", berr)
	}

	onErr := make(chan error, 1)
	go func() {
		_, _, err := Run(ctx, bob, splitQuery(runQ, runRels, mpc.Bob), Options{})
		if err != nil {
			bob.Conn.Close()
		}
		onErr <- err
	}()
	got, _, err := Run(ctx, alice, splitQuery(runQ, runRels, mpc.Alice), Options{})
	if err != nil {
		t.Fatalf("alice run: %v", err)
	}
	if berr := <-onErr; berr != nil {
		t.Fatalf("bob run: %v", berr)
	}
	if !relsEqual(got, want) {
		t.Fatalf("fallback result differs:\ngot  %v %v\nwant %v %v",
			got.Tuples, got.Annot, want.Tuples, want.Annot)
	}
}

// TestClearPrecomputed drops staged material on both parties; the
// subsequent run must take the direct path and still be correct.
func TestClearPrecomputed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q, rels := example11Query(rng, 12, 18)

	want, _, aerr, berr := runTraced(context.Background(), q, rels)
	if aerr != nil || berr != nil {
		t.Fatalf("direct run: alice %v, bob %v", aerr, berr)
	}

	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	ctx := context.Background()

	offErr := make(chan error, 1)
	go func() {
		_, err := PrecomputeOpts(ctx, bob, splitQuery(q, rels, mpc.Bob), Options{})
		offErr <- err
	}()
	if _, err := PrecomputeOpts(ctx, alice, splitQuery(q, rels, mpc.Alice), Options{}); err != nil {
		t.Fatalf("alice precompute: %v", err)
	}
	if berr := <-offErr; berr != nil {
		t.Fatalf("bob precompute: %v", berr)
	}
	alice.ClearPrecomputed()
	bob.ClearPrecomputed()

	onErr := make(chan error, 1)
	go func() {
		_, _, err := Run(ctx, bob, splitQuery(q, rels, mpc.Bob), Options{})
		if err != nil {
			bob.Conn.Close()
		}
		onErr <- err
	}()
	got, _, err := Run(ctx, alice, splitQuery(q, rels, mpc.Alice), Options{})
	if err != nil {
		t.Fatalf("alice run: %v", err)
	}
	if berr := <-onErr; berr != nil {
		t.Fatalf("bob run: %v", berr)
	}
	if !relsEqual(got, want) {
		t.Fatal("post-clear result differs from direct run")
	}
}
