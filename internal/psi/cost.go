package psi

import (
	"secyan/internal/gc"
	"secyan/internal/prf"
)

// Demand is the traffic of one execution's bins — direct, or between
// the two OEPs of the indexed PSI (§5.5) — in the order it runs them,
// for the plan compiler in internal/core: the receiver's hash seed, one
// KKRT batch of B bins with the PSI sender as KKRT sender (oprf.go; it
// is not pooled), the sender's hint, the ρ-OT of B correlated OTs of
// RhoLen-byte messages with the PSI receiver as OT sender, and the
// comparison circuit the PSI sender garbles, whose evaluator inputs are
// its label batch. cost_test.go pins the sum to measured traffic.
type Demand struct {
	Seed, Hint int // plain bytes
	RhoLen     int
	Circuit    func() *gc.Circuit
}

// Demands returns the Demand of one execution with ell-bit shares.
func (pr Params) Demands(ell int, indexed bool) Demand {
	w := ell
	if indexed {
		w = idxWidth(pr.N + pr.B)
	}
	return Demand{Seed: prf.SeedSize, Hint: pr.B * pr.hint(w).binBytes(), RhoLen: rhoBytes(w),
		Circuit: func() *gc.Circuit { return buildCircuit(pr, w, ell) }}
}
