package core

import (
	"testing"

	"secyan/internal/gc"
	"secyan/internal/ot"
)

// TestOperatorCostsMatchBuiltCircuits pins what every operator estimate
// rests on, for every n up to 64 and a handful of larger sizes: the π¹
// merge chain's tuple-count interpolation against circuits built
// outright, and each slot-built reveal circuit (with and without the
// keyed row payload) against the same per-tuple gadget looped n times in
// one builder — how it was built before circuits had slots. The share
// multiplication is no circuit: mulCost is the closed form of its one OT
// batch and productTreeCost one batch per tree level, pinned here to the
// OT layer's own predictor.
func TestOperatorCostsMatchBuiltCircuits(t *testing.T) {
	const ell = 32
	sizes := []int{97, 200}
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		if got, want := projectOneCost(n, ell), gc.DimsOf(buildProjectOneCircuit(n, ell)).MessageCost(); got != want {
			t.Fatalf("project-one n=%d: predicted %d bytes, built circuit costs %d", n, got, want)
		}
		if got, want := mulCost(n, ell), ot.ExtCost(2*n*ell, ell/8); got != want {
			t.Fatalf("mul n=%d: predicted %d bytes, one batch of 2nℓ OTs costs %d", n, got, want)
		}
		// Pairs multiplied per tree level, for k = 2 … 5 factors.
		for k, levels := range map[int][]int{2: {1}, 3: {1, 1}, 4: {2, 1}, 5: {2, 1, 1}} {
			var want int64
			for _, pairs := range levels {
				want += ot.ExtCost(2*pairs*n*ell, ell/8)
			}
			if got := productTreeCost(n, k, ell); got != want {
				t.Fatalf("product n=%d k=%d: predicted %d bytes, its batches cost %d", n, k, got, want)
			}
		}
	}
	type shape struct {
		build  func(n int) *gc.Circuit
		gadget func(b *gc.Builder)
	}
	shapes := map[string]shape{
		"reveal": {func(n int) *gc.Circuit { return buildRevealCircuit(n, 2, ell, false) },
			func(b *gc.Builder) { revealGadget(b, 2, ell, false) }},
		"reveal-rows": {func(n int) *gc.Circuit { return buildRevealCircuit(n, 2, ell, true) },
			func(b *gc.Builder) { revealGadget(b, 2, ell, true) }},
	}
	for name, sh := range shapes {
		for _, n := range sizes {
			looped := gc.NewBuilder()
			for i := 0; i < n; i++ {
				sh.gadget(looped)
			}
			if got, want := circuitCost(sh.build(n)), gc.DimsOf(looped.Build()).MessageCost(); got != want {
				t.Fatalf("%s n=%d: slot-built circuit costs %d bytes, looped gadget %d", name, n, got, want)
			}
		}
	}
}
