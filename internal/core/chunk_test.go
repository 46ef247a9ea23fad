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

// Chunk-invariance suite: chunk-oriented streaming is a purely local
// data-plane restructuring, so for ANY chunk size the execution must be
// byte-identical on the wire — same results, same per-step trace
// (bytes, messages, rounds), same per-connection transport stats — as
// the fully materialized baseline. These tests pin that contract over
// the three driver fixtures, with and without the offline/online split.

// chunkRun captures everything observable about one two-party run.
type chunkRun struct {
	rel   *relation.Relation
	tr    *Trace
	alice transport.Stats
	bob   transport.Stats
}

// runChunked executes q on a fresh pipe-connected pair with the given
// chunk size. When precompute is set, the offline phase runs first and
// connection stats are reset so the comparison covers the online phase
// under ahead-of-time material — the overlap case where chunked steps
// must still consume pools in the exact baseline order.
func runChunked(t *testing.T, q *Query, rels []*relation.Relation, chunk int, precompute bool) chunkRun {
	t.Helper()
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	ctx := context.Background()
	opts := Options{ChunkSize: chunk}

	if precompute {
		offErr := make(chan error, 1)
		go func() {
			_, err := PrecomputeOpts(ctx, bob, splitQuery(q, rels, mpc.Bob), opts)
			if err != nil {
				bob.Conn.Close()
			}
			offErr <- err
		}()
		if _, err := PrecomputeOpts(ctx, alice, splitQuery(q, rels, mpc.Alice), opts); err != nil {
			t.Fatalf("alice precompute (chunk %d): %v", chunk, err)
		}
		if err := <-offErr; err != nil {
			t.Fatalf("bob precompute (chunk %d): %v", chunk, err)
		}
		alice.Conn.ResetStats()
		bob.Conn.ResetStats()
	}

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
		t.Fatalf("alice run (chunk %d): %v", chunk, err)
	}
	if berr := <-done; berr != nil {
		t.Fatalf("bob run (chunk %d): %v", chunk, berr)
	}
	return chunkRun{rel: rel, tr: tr, alice: alice.Conn.Stats(), bob: bob.Conn.Stats()}
}

// traceShape strips the only nondeterministic field (Elapsed), keeping
// phase, operator, node, size and the measured bytes/messages/rounds.
func traceShape(tr *Trace) []TraceStep {
	steps := make([]TraceStep, len(tr.Steps))
	for i, s := range tr.Steps {
		s.Elapsed = 0
		steps[i] = s
	}
	return steps
}

// TestChunkedTranscriptEquivalence is the invariance contract of the
// streaming executor: chunk sizes 1, 3 and 64 reproduce the unbounded
// (fully materialized) execution exactly — results, per-step measured
// traffic and per-connection stats all byte-identical — both for direct
// runs and for Precompute-then-Run.
func TestChunkedTranscriptEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
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
		for _, pre := range []struct {
			name string
			on   bool
		}{{"direct", false}, {"precomputed", true}} {
			t.Run(tc.name+"/"+pre.name, func(t *testing.T) {
				base := runChunked(t, tc.q, tc.rels, relation.Unbounded, pre.on)
				for _, chunk := range []int{1, 3, 64} {
					got := runChunked(t, tc.q, tc.rels, chunk, pre.on)
					if !relsEqual(got.rel, base.rel) {
						t.Fatalf("chunk %d: result differs from materialized baseline:\ngot  %v %v\nwant %v %v",
							chunk, got.rel.Tuples, got.rel.Annot, base.rel.Tuples, base.rel.Annot)
					}
					if !reflect.DeepEqual(traceShape(got.tr), traceShape(base.tr)) {
						t.Fatalf("chunk %d: trace differs from materialized baseline:\ngot  %+v\nwant %+v",
							chunk, traceShape(got.tr), traceShape(base.tr))
					}
					if got.alice != base.alice || got.bob != base.bob {
						t.Fatalf("chunk %d: transport stats differ from materialized baseline:\ngot  alice %+v bob %+v\nwant alice %+v bob %+v",
							chunk, got.alice, got.bob, base.alice, base.bob)
					}
				}
			})
		}
	}
}

// TestChunkedPlanMetadata pins the IR side: the compiled plan records
// the normalized chunk size and per-step chunk counts, and the chunk
// size never changes the step list or estimates.
func TestChunkedPlanMetadata(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q, _ := multiNodeQuery(rng)

	base, err := ExplainOpts(q, testRing.Bits, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.ChunkSize != relation.DefaultChunkSize() {
		t.Fatalf("Explain plan ChunkSize = %d, want the default %d", base.ChunkSize, relation.DefaultChunkSize())
	}
	for _, chunk := range []int{1, 3, 64, relation.Unbounded} {
		p, err := ExplainOpts(q, testRing.Bits, Options{ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		if p.ChunkSize != chunk {
			t.Fatalf("ExplainOpts(ChunkSize: %d) plan ChunkSize = %d", chunk, p.ChunkSize)
		}
		if len(p.Steps) != len(base.Steps) {
			t.Fatalf("chunk %d: %d steps, baseline %d", chunk, len(p.Steps), len(base.Steps))
		}
		for i, s := range p.Steps {
			b := base.Steps[i]
			if s.Phase != b.Phase || s.Op != b.Op || s.Node != b.Node || s.N != b.N || s.EstBytes != b.EstBytes {
				t.Fatalf("chunk %d step %d: %+v differs from baseline %+v", chunk, i, s, b)
			}
			if want := relation.NumChunks(s.N, chunk); s.Chunks != want {
				t.Fatalf("chunk %d step %d (%s, N=%d): Chunks = %d, want %d", chunk, i, s.Op, s.N, s.Chunks, want)
			}
		}
	}
}
