package psi

import (
	"secyan/internal/gc"
	"secyan/internal/oep"
	"secyan/internal/ot"
	"secyan/internal/prf"
)

// Wire-cost predictors for the two PSIs, used by the plan compiler in
// internal/core: closed forms over the public parameters. Each composes
// the per-bin protocol — hash seed, KKRT batch, hint, ρ-OT and the
// comparison circuit (built outright: it is one bin's gadget and a bin
// count) — with, for the indexed PSI, its two OEPs. cost_test.go pins
// them to measured traffic.

// binsCost is the traffic of recvBins/sendBins for w-bit payloads.
func binsCost(pr Params, w, ell int) int64 {
	return int64(prf.SeedSize) + ot.KKRTCost(pr.B) + int64(pr.B*pr.hint(w).binBytes()) +
		ot.CorrelatedCost(pr.B, rhoBytes(w)) + gc.DimsOf(buildCircuit(pr, w, ell)).MessageCost()
}

// Demand is what one execution — direct, or indexed (§5.5) — asks of an
// offline phase: its two IKNP batches, in the order it runs them, and
// the circuit it garbles. The PSI receiver is the OT sender of the ρ-OT;
// the PSI sender is the OT sender of the label batch and garbles the
// circuit. The KKRT batch before them (oprf.go) is not pooled: it is
// one row per bin, online.
type Demand struct {
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
	return Demand{Rho: pr.B, RhoLen: rhoBytes(w), Labels: pr.B * pr.tau(),
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
