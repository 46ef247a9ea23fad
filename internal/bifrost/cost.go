package bifrost

import (
	"secyan/internal/gc"
	"secyan/internal/prf"
)

// Wire-cost predictor for the bifrost join, used by the plan compiler in
// internal/core. It composes the hash-seed message with the comparison
// circuit, built outright: it is one bin's gadget and a bin count.
// cost_test.go pins it to measured traffic.

// AlignCost returns the total bytes (both directions) of one
// RunReceiver/RunSender execution for public set sizes m (receiver) and
// n (sender) with ell-bit payloads, excluding one-time base-OT setup.
// The OEP the caller runs to scatter slots onto its tuples is priced
// separately (oep.Cost(Slots, m, false)).
func AlignCost(m, n, ell int) int64 {
	pr := NewParams(m, n)
	return int64(prf.SeedSize) + gc.DimsOf(buildCircuit(pr, ell)).MessageCost()
}
