package psi

import (
	"secyan/internal/gc"
	"secyan/internal/oep"
	"secyan/internal/ot"
	"secyan/internal/prf"
)

// Wire-cost predictors for the PSI variants, used by the plan compiler
// in internal/core: closed forms over the public parameters. Each
// composes the per-bin protocol — hash seed, OPRF batch, hint, and the
// comparison circuit (built outright: it is one bin's gadget and a bin
// count) — with the OEP stages of the indexed construction.
// cost_test.go pins them to measured traffic.

// binsCost is the traffic of recvBins/sendBins for w-bit payloads.
func binsCost(pr Params, w, ell int) int64 {
	return int64(prf.SeedSize) + ot.RandomCost(pr.B*keyBits) + int64(pr.B*pr.hint(w).binBytes()) +
		gc.DimsOf(buildCircuit(pr, w, ell)).MessageCost()
}

// Demands returns what one execution — direct, or indexed (§5.5) — asks
// of an offline phase, all of it the PSI sender's: the sizes of its two
// OT batches in order (the OPRF's random OTs, then the per-bin circuit's
// evaluator inputs, which are what the receiver's hint decoded to) and
// the constructor of the circuit it garbles.
func (pr Params) Demands(ell int, indexed bool) (oprf, inputs int, circ func() *gc.Circuit) {
	w := ell
	if indexed {
		w = idxWidth(pr.N + pr.B)
	}
	return pr.B * keyBits, pr.B * (pr.tau() + w), func() *gc.Circuit { return buildCircuit(pr, w, ell) }
}

// DirectCost returns the total bytes (both directions) of one
// RunReceiver/RunSender execution for public set sizes m (receiver) and
// n (sender) with ell-bit payloads, excluding one-time base-OT setup.
func DirectCost(m, n, ell int) int64 {
	return binsCost(NewParams(m, n), ell, ell)
}

// IndexedCost returns the total bytes (both directions) of one indexed
// PSI execution (§5.5): RunSharedPayloadReceiver/Sender when
// sharedPayload is true, RunIndexedPlainReceiver/Sender otherwise (the
// plain variant replaces the ξ₁ OEP with a free local shuffle).
func IndexedCost(m, n, ell int, sharedPayload bool) int64 {
	pr := NewParams(m, n)
	npb := pr.N + pr.B
	cost := binsCost(pr, idxWidth(npb), ell) + oep.Cost(npb, pr.B, ell, false)
	if sharedPayload {
		cost += oep.Cost(npb, npb, ell, true)
	}
	return cost
}
