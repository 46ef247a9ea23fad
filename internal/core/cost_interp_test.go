package core

import (
	"testing"

	"secyan/internal/gc"
	"secyan/internal/gcbaseline"
	"secyan/internal/ot"
)

// TestOperatorCostsMatchBuiltCircuits pins the circuit dimensions every
// operator's exchanges carry, for every n up to 64 and a handful of
// larger sizes: the π¹ merge chain's and the gc alignment's interpolation
// against circuits built outright, and each slot-built reveal circuit
// (with and without the keyed row payload) against the same per-tuple
// gadget looped n times in one builder — how it was built before
// circuits had slots. A circuit exchange prices its label batch from
// Dims.EvalInputs; the share multiplication is no circuit but one OT
// batch per product-tree level, pinned here to the OT layer's own
// predictor.
func TestOperatorCostsMatchBuiltCircuits(t *testing.T) {
	const ell = 32
	sizes := []int{97, 200}
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		if got, want := *projectOneDims(n, ell), gc.DimsOf(buildProjectOneCircuit(n, ell)); got != want {
			t.Fatalf("project-one n=%d: predicted %+v, built circuit %+v", n, got, want)
		}
		if got, want := *gcAlignDims(n, 3, ell), gc.DimsOf(gcbaseline.AlignCircuit(n, 3, ell)); got != want {
			t.Fatalf("gc-align m=%d: predicted %+v, built circuit %+v", n, got, want)
		}
		// Pairs multiplied per tree level, for k = 2 … 5 factors.
		for k, levels := range map[int][]int{2: {1}, 3: {1, 1}, 4: {2, 1}, 5: {2, 1, 1}} {
			var want int64
			for _, pairs := range levels {
				want += ot.CorrelatedCost(2*pairs*n*ell, ell/8)
			}
			if got := directCost(productBatches(n, k, ell)); got != want {
				t.Fatalf("product n=%d k=%d: predicted %d bytes, its batches cost %d", n, k, got, want)
			}
		}
	}
	type shape struct {
		dims   func(n int) gc.Dims
		gadget func(b *gc.Builder)
	}
	shapes := map[string]shape{
		"reveal": {func(n int) gc.Dims { return *revealDims(n, 2, ell, false) },
			func(b *gc.Builder) { revealGadget(b, 2, ell, false) }},
		"reveal-rows": {func(n int) gc.Dims { return *revealDims(n, 2, ell, true) },
			func(b *gc.Builder) { revealGadget(b, 2, ell, true) }},
	}
	for name, sh := range shapes {
		for _, n := range sizes {
			looped := gc.NewBuilder()
			for i := 0; i < n; i++ {
				sh.gadget(looped)
			}
			if got, want := sh.dims(n), gc.DimsOf(looped.Build()); got != want {
				t.Fatalf("%s n=%d: slot-built circuit %+v, looped gadget %+v", name, n, got, want)
			}
		}
	}
}
