package secyan

import (
	"context"
	"testing"
)

// TestPrecomputeTranscriptEquivalence pins the public contract of the
// offline/online split end to end: a run preceded by Precompute — fed
// only the bare query shape, no relations — must produce the identical
// result to a direct run, and its online traffic must be strictly
// smaller (the OT-extension matrices moved offline; only correction
// bits and ciphertexts remain on the critical path).
func TestPrecomputeTranscriptEquivalence(t *testing.T) {
	_, _, _, build := exampleQuery()

	// Direct reference run.
	alice, bob := OpenLocal()
	ref, _, err := queryBoth(alice, bob, build)
	if err != nil {
		alice.Close()
		bob.Close()
		t.Fatalf("direct run: %v", err)
	}
	directBytes := alice.Stats().Data.TotalBytes()
	alice.Close()
	bob.Close()

	// Precomputed run. The offline phase is data-independent, so each
	// party precomputes from a shape with every relation stripped.
	shapeFor := func(role Role) *Query {
		q := build(role)
		for i := range q.Inputs {
			q.Inputs[i].Rel = nil
		}
		return q
	}
	alice, bob = OpenLocal()
	defer alice.Close()
	defer bob.Close()
	ctx := context.Background()
	_, _, err = both(alice, bob, func(s *Session) (*Trace, error) {
		return s.Precompute(ctx, shapeFor(s.role))
	})
	if err != nil {
		t.Fatalf("precompute: %v", err)
	}
	offBytes := alice.Stats().Data.TotalBytes()
	got, _, err := queryBoth(alice, bob, build)
	if err != nil {
		t.Fatalf("precomputed run: %v", err)
	}

	want, have := resultKey(ref), resultKey(got)
	if len(want) != len(have) {
		t.Fatalf("precomputed run: %d result tuples, direct %d", len(have), len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("precomputed result row %q, direct %q", have[i], want[i])
		}
	}

	onlineBytes := alice.Stats().Data.TotalBytes() - offBytes
	if offBytes <= 0 {
		t.Error("offline phase moved no bytes")
	}
	if onlineBytes >= directBytes {
		t.Errorf("online traffic %d bytes is not smaller than the direct run's %d", onlineBytes, directBytes)
	}
}
