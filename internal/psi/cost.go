package psi

import (
	"secyan/internal/gc"
	"secyan/internal/oep"
	"secyan/internal/prf"
)

// Wire-cost predictors for the PSI variants, used by the plan compiler
// in internal/core. Each composes the hash-seed message, the comparison
// circuit (built outright: it is one bin's gadget and a bin count) and
// the OEP stages of the indexed construction. cost_test.go pins them to
// measured traffic.

// DirectCost returns the total bytes (both directions) of one
// RunReceiver/RunSender execution for public set sizes m (receiver) and
// n (sender) with ell-bit payloads, excluding one-time base-OT setup.
func DirectCost(m, n, ell int) int64 {
	pr := NewParams(m, n)
	return int64(prf.SeedSize) + gc.DimsOf(buildCircuit(pr, ell)).MessageCost()
}

// IndexedCost returns the total bytes (both directions) of one indexed
// PSI execution (§5.5): RunSharedPayloadReceiver/Sender when
// sharedPayload is true, RunIndexedPlainReceiver/Sender otherwise (the
// plain variant replaces the ξ₁ OEP with a free local shuffle).
func IndexedCost(m, n, ell int, sharedPayload bool) int64 {
	pr := NewParams(m, n)
	npb := pr.N + pr.B
	idxW := idxWidth(npb)
	cost := int64(prf.SeedSize)
	if sharedPayload {
		cost += oep.Cost(npb, npb, true)
	}
	cost += gc.DimsOf(buildClearIndexCircuit(pr, ell, idxW)).MessageCost()
	cost += oep.Cost(npb, pr.B, false)
	return cost
}
