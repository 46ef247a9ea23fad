package gc

import (
	"testing"

	"secyan/internal/obs"
	"secyan/internal/prf"
)

// benchCircuit builds the circuit both observability benchmarks garble:
// a chain of 32-bit multiply-adds, a few thousand AND gates.
func benchCircuit() *Circuit {
	bb := NewBuilder()
	x := bb.GarblerInputWord(32)
	y := bb.EvalInputWord(32)
	acc := x
	for i := 0; i < 50; i++ {
		acc = bb.Add(bb.Mul(acc, y), x)
	}
	bb.OutputWordToEval(acc)
	return bb.Build()
}

// BenchmarkObsDisabled measures the garbling hot loop with observation
// off and no track bound — the default state. Compare allocs/op and
// ns/op against BenchmarkObsEnabled: the disabled fast path must not add
// allocations (the ones reported belong to garbling itself;
// TestObsDisabledGarblePathAllocs pins the obs contribution to zero).
func BenchmarkObsDisabled(b *testing.B) {
	c := benchCircuit()
	g := prf.NewPRG(prf.Seed{1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = garble(c, testKey, g, nil, false, nil)
	}
}

// BenchmarkObsEnabled is the counterpart with metrics collection on and
// a track bound, for measuring the observation overhead.
func BenchmarkObsEnabled(b *testing.B) {
	c := benchCircuit()
	g := prf.NewPRG(prf.Seed{1})
	obs.Enable()
	release := obs.NewTracer().Track("bench").Bind()
	defer func() {
		release()
		obs.Disable()
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = garble(c, testKey, g, nil, false, nil)
	}
}

// TestObsDisabledGarblePathAllocs is the allocation guard behind
// BenchmarkObsDisabled: the exact obs sequence the garble and evaluate
// kernels execute per circuit — the kernel span's begin and end — must
// allocate nothing when observation is off and no track is bound.
func TestObsDisabledGarblePathAllocs(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("test requires the default disabled state")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := kGarble.Begin()
		if sp != (obs.Span{}) {
			t.Fatal("kernel span opened with observation off and no track bound")
		}
		sp.EndN(1234)
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocates %v times per garble, want 0", allocs)
	}
}
