package psi

import (
	"secyan/internal/gc"
	"secyan/internal/oep"
	"secyan/internal/ot"
	"secyan/internal/prf"
)

// Wire-cost predictors for the two PSIs, used by the plan compiler in
// internal/core: closed forms over the public parameters. Each composes
// the per-bin protocol — hash seed, OPRF batch, hint, ρ-OT and the
// comparison circuit (built outright: it is one bin's gadget and a bin
// count) — with, for the indexed PSI, its two OEPs. cost_test.go pins
// them to measured traffic.

// binsCost is the traffic of recvBins/sendBins for w-bit payloads.
func binsCost(pr Params, w, ell int) int64 {
	return int64(prf.SeedSize) + ot.RandomCost(pr.B*keyBits) + int64(pr.B*pr.hint(w).binBytes()) +
		ot.CorrelatedCost(pr.B, rhoBytes(w)) + gc.DimsOf(buildCircuit(pr, w, ell)).MessageCost()
}

// Demand is what one execution — direct, or indexed (§5.5) — asks of an
// offline phase: its three OT batches, in the order it runs them, and
// the circuit it garbles. The PSI sender is the OT sender of the OPRF and
// label batches and garbles the circuit; the PSI receiver is the OT
// sender of the ρ-OT.
type Demand struct {
	OPRF    int // random OTs of 16-byte pads
	Rho     int // correlated OTs of RhoLen-byte messages
	RhoLen  int
	Labels  int // the circuit's evaluator inputs: what the receiver's hint decoded to
	Circuit func() *gc.Circuit
}

// Demands returns the Demand of one execution with ell-bit shares.
func (pr Params) Demands(ell int, indexed bool) Demand {
	w := ell
	if indexed {
		w = idxWidth(pr.N + pr.B)
	}
	return Demand{OPRF: pr.B * keyBits, Rho: pr.B, RhoLen: rhoBytes(w), Labels: pr.B * pr.tau(),
		Circuit: func() *gc.Circuit { return buildCircuit(pr, w, ell) }}
}

// DirectCost returns the total bytes (both directions) of one
// RunReceiver/RunSender execution for public set sizes m (receiver) and
// n (sender) with ell-bit payloads, excluding one-time base-OT setup.
func DirectCost(m, n, ell int) int64 {
	return binsCost(NewParams(m, n), ell, ell)
}

// IndexedCost returns the total bytes (both directions) of one
// RunSharedPayloadReceiver/Sender execution (§5.5) — the ξ₁ OEP, the
// bins on index payloads and the ξ₂ OEP — for public set sizes m
// (receiver) and n (sender) with ell-bit shares.
func IndexedCost(m, n, ell int) int64 {
	pr := NewParams(m, n)
	npb := pr.N + pr.B
	return oep.Cost(npb, npb, ell, true) + binsCost(pr, idxWidth(npb), ell) + oep.Cost(npb, pr.B, ell, false)
}
