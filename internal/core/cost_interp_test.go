package core

import (
	"testing"

	"secyan/internal/gc"
)

// TestOperatorCostsMatchBuiltCircuits pins the tuple-count interpolation
// behind every operator estimate (merge chain, annotation product and
// multiplication, reveal) against circuits built outright, for every n
// up to 64 and a handful of larger sizes: interpCost probes at tiny n,
// and the byte-exact plan estimates rest on the extrapolation.
func TestOperatorCostsMatchBuiltCircuits(t *testing.T) {
	const ell = 32
	builders := map[string]func(n int) *gc.Circuit{
		"merge-sum":   func(n int) *gc.Circuit { return buildMergeCircuit(n, ell, mergeSum) },
		"merge-or":    func(n int) *gc.Circuit { return buildMergeCircuit(n, ell, mergeOr) },
		"mul":         func(n int) *gc.Circuit { return buildMulCircuit(n, ell) },
		"product-3":   func(n int) *gc.Circuit { return buildProductCircuit(n, 3, ell) },
		"reveal":      func(n int) *gc.Circuit { return buildRevealCircuit(n, 2, ell, false) },
		"reveal-rows": func(n int) *gc.Circuit { return buildRevealCircuit(n, 2, ell, true) },
	}
	sizes := []int{97, 200}
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for name, build := range builders {
		for _, n := range sizes {
			if got, want := interpCost(n, build), gc.DimsOf(build(n)).MessageCost(); got != want {
				t.Fatalf("%s n=%d: predicted %d bytes, built circuit costs %d", name, n, got, want)
			}
		}
	}
}
