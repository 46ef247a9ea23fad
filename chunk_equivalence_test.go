package secyan

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"secyan/internal/relation"
)

// End-to-end chunk-invariance suite at the public API: the streaming
// executor must produce byte-identical transcripts for every chunk
// size, at every worker count, over every transport. Chunking is a
// local data-plane restructuring — it never moves a message boundary —
// so results, per-connection transport.Stats and session payload totals
// are all required to match the fully materialized baseline exactly.

type chunkOutcome struct {
	result         []string
	aStats, bStats Stats
}

// runExampleChunked runs the quickstart query once with the given chunk
// size, worker count and transport, capturing the canonicalized result
// and both endpoints' transport stats.
func runExampleChunked(t *testing.T, useTCP bool, workers, chunk int) chunkOutcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))

	_, _, _, build := exampleQuery()
	var alice, bob *Session
	if useTCP {
		alice, bob = tcpSessions(t, WithChunkSize(chunk))
	} else {
		alice, bob = OpenLocal(WithChunkSize(chunk))
		defer alice.Close()
		defer bob.Close()
	}
	res, _, err := queryBoth(alice, bob, build)
	if err != nil {
		t.Fatalf("chunk=%d workers=%d tcp=%v: %v", chunk, workers, useTCP, err)
	}
	return chunkOutcome{resultKey(res), alice.Stats().Data, bob.Stats().Data}
}

func requireOutcomeEqual(t *testing.T, label string, got, want chunkOutcome) {
	t.Helper()
	if len(got.result) != len(want.result) {
		t.Fatalf("%s: %d result tuples, baseline %d", label, len(got.result), len(want.result))
	}
	for i := range want.result {
		if got.result[i] != want.result[i] {
			t.Fatalf("%s: result row %q, baseline %q", label, got.result[i], want.result[i])
		}
	}
	if got.aStats != want.aStats {
		t.Fatalf("%s: alice stats %+v, baseline %+v", label, got.aStats, want.aStats)
	}
	if got.bStats != want.bStats {
		t.Fatalf("%s: bob stats %+v, baseline %+v", label, got.bStats, want.bStats)
	}
}

// TestChunkedTranscriptEquivalence sweeps chunk sizes {1, 3, 64} against
// the unbounded (materialized) baseline over {pipe, TCP} × workers
// {1, 4}, and additionally pins each TCP baseline to the pipe baseline:
// one transcript for the whole matrix.
func TestChunkedTranscriptEquivalence(t *testing.T) {
	var pipeBase *chunkOutcome
	for _, tr := range []struct {
		name string
		tcp  bool
	}{{"pipe", false}, {"tcp", true}} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tr.name, workers), func(t *testing.T) {
				base := runExampleChunked(t, tr.tcp, workers, relation.Unbounded)
				if pipeBase == nil {
					pipeBase = &base
				} else {
					requireOutcomeEqual(t, "materialized baseline vs pipe/workers=1", base, *pipeBase)
				}
				for _, chunk := range []int{1, 3, 64} {
					got := runExampleChunked(t, tr.tcp, workers, chunk)
					requireOutcomeEqual(t, fmt.Sprintf("chunk=%d", chunk), got, base)
				}
			})
		}
	}
}

// TestSessionWithChunkSize pins the WithChunkSize session option: a
// chunked session returns the same results with the same per-stream
// payload totals as a materialized one, and its Explain records the
// configured chunk size in the plan.
func TestSessionWithChunkSize(t *testing.T) {
	_, _, _, build := exampleQuery()
	ctx := context.Background()

	run := func(chunk int) ([]string, Stats) {
		alice, bob := OpenLocal(WithChunkSize(chunk))
		defer alice.Close()
		defer bob.Close()
		done := make(chan error, 1)
		go func() {
			_, err := bob.Query(ctx, build(Bob))
			done <- err
		}()
		res, err := alice.Query(ctx, build(Alice))
		if err != nil {
			t.Fatalf("chunk=%d: alice: %v", chunk, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("chunk=%d: bob: %v", chunk, err)
		}
		return resultKey(res.Relation), alice.Stats().Data
	}

	baseRes, baseData := run(relation.Unbounded)
	for _, chunk := range []int{1, 64} {
		res, data := run(chunk)
		for i := range baseRes {
			if res[i] != baseRes[i] {
				t.Fatalf("chunk=%d: result row %q, baseline %q", chunk, res[i], baseRes[i])
			}
		}
		if data != baseData {
			t.Fatalf("chunk=%d: session payload stats %+v, baseline %+v", chunk, data, baseData)
		}
	}

	alice, bob := OpenLocal(WithChunkSize(7))
	defer alice.Close()
	defer bob.Close()
	plan, err := alice.Explain(build(Alice))
	if err != nil {
		t.Fatal(err)
	}
	if plan.ChunkSize != 7 {
		t.Fatalf("session Explain plan ChunkSize = %d, want 7", plan.ChunkSize)
	}
	for _, s := range plan.Steps {
		if want := relation.NumChunks(s.N, 7); s.Chunks != want {
			t.Fatalf("step %s (N=%d): Chunks = %d, want %d", s.Op, s.N, s.Chunks, want)
		}
	}
}
