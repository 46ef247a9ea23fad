package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/relation"
)

// Property-based safety net for the secure operators (ROADMAP 5c): seeded
// random free-connex queries the suite did not hand-write, run through
// every surviving backend, chunk size and the cold / precomputed paths,
// each checked against the plaintext engine. The PSI and the share
// multiplication sit under every semijoin, so this is the net a change
// to either falls into.

// randomQuery draws a join tree of 2–4 relations — every edge a join
// attribute shared by its endpoints, some relations with an attribute of
// their own — with random owners, and an output set the planner accepts.
// Data varies what the operators are sensitive to: the key domain (from
// nearly every key colliding to nearly none), relation sizes down to
// empty, relations whose every tuple is a zero-annotated dummy, and
// annotations that overflow the ring in every product.
func randomQuery(rng *rand.Rand) (*Query, []*relation.Relation) {
	for {
		k := 2 + rng.Intn(3)
		attrs := make([][]relation.Attr, k)
		for i := 1; i < k; i++ {
			a := relation.Attr(fmt.Sprintf("j%d", i))
			parent := rng.Intn(i)
			attrs[i] = append(attrs[i], a)
			attrs[parent] = append(attrs[parent], a)
		}
		var all []relation.Attr
		for i := range attrs {
			if rng.Intn(2) == 0 {
				attrs[i] = append(attrs[i], relation.Attr(fmt.Sprintf("g%d", i)))
			}
			all = append(all, attrs[i]...)
		}
		q := &Query{NoLocalOptimizations: rng.Intn(4) == 0}
		seen := map[relation.Attr]bool{}
		for _, a := range all {
			if !seen[a] && rng.Intn(3) == 0 {
				q.Output = append(q.Output, a)
			}
			seen[a] = true
		}
		domain := uint64(2 + rng.Intn(1+rng.Intn(40)))
		rels := make([]*relation.Relation, k)
		for i := range rels {
			rel := relation.New(relation.MustSchema(attrs[i]...))
			n := rng.Intn(25)
			if rng.Intn(8) == 0 {
				n = 0
			}
			for r := 0; r < n; r++ {
				row := make([]uint64, len(attrs[i]))
				for c := range row {
					row[c] = rng.Uint64() % domain
				}
				annot := uint64(rng.Intn(5))
				if rng.Intn(2) == 0 {
					annot = rng.Uint64() & (1<<uint(testRing.Bits) - 1)
				}
				rel.Append(row, annot)
			}
			if rng.Intn(8) == 0 {
				var dg relation.DummyGen
				rel = rel.ReplaceWithDummies(func([]uint64) bool { return false }, &dg)
			}
			rels[i] = rel
			q.Inputs = append(q.Inputs, Input{Name: fmt.Sprintf("R%d", i), Owner: mpc.Role(rng.Intn(2)),
				Schema: rel.Schema, N: rel.Len()})
		}
		if _, err := q.Hypergraph().Plan(q.Output); err == nil {
			return q, rels
		}
	}
}

// TestPropertySecureMatchesPlaintext runs every generated query under
// backend ∈ {cost-chosen, psi-oep, gc} × chunk ∈ {1, 64, unbounded} ×
// {cold, precomputed} on one party pair, requires the plaintext engine's
// result every time, and on the cold runs requires every reduce- and
// semijoin-phase estimate to be byte-exact.
func TestPropertySecureMatchesPlaintext(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	ctx := context.Background()
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		q, rels := randomQuery(rng)
		want := plaintextReference(t, q, rels)
		alice, bob := mpc.Pair(testRing)
		both := func(name string, f func(p *mpc.Party, q *Query) (*relation.Relation, *Trace, error)) (*relation.Relation, *Trace) {
			t.Helper()
			done := make(chan error, 1)
			go func() {
				_, _, err := f(bob, splitQuery(q, rels, mpc.Bob))
				if err != nil {
					bob.Conn.Close()
				}
				done <- err
			}()
			rel, tr, err := f(alice, splitQuery(q, rels, mpc.Alice))
			if err != nil {
				alice.Conn.Close()
			}
			if berr := <-done; err != nil || berr != nil {
				t.Fatalf("seed %d %s: alice: %v, bob: %v\nquery: %+v", seed, name, err, berr, q)
			}
			return rel, tr
		}
		for _, backend := range []BackendID{"", BackendPSIOEP, BackendGC} {
			for _, chunk := range []int{1, 64, relation.Unbounded} {
				for _, pre := range []bool{false, true} {
					opts := Options{Backend: backend, ChunkSize: chunk}
					name := fmt.Sprintf("backend=%q chunk=%d precomputed=%v", backend, chunk, pre)
					if pre {
						both(name+" (offline)", func(p *mpc.Party, q *Query) (*relation.Relation, *Trace, error) {
							tr, err := PrecomputeOpts(ctx, p, q, opts)
							return nil, tr, err
						})
					}
					got, tr := both(name, func(p *mpc.Party, q *Query) (*relation.Relation, *Trace, error) {
						return Run(ctx, p, q, opts)
					})
					compareResults(t, fmt.Sprintf("seed %d %s", seed, name), got, want)
					for _, s := range tr.Steps {
						if !pre && (s.Phase == "reduce" || s.Phase == "semijoin") && s.EstBytes != s.Bytes {
							t.Errorf("seed %d %s: step %s %s (%s): estimated %d bytes, measured %d",
								seed, name, s.Op, s.Node, s.Backend, s.EstBytes, s.Bytes)
						}
					}
				}
			}
		}
		alice.Conn.Close()
		bob.Conn.Close()
	}
}
