package oep

import (
	"secyan/internal/ot"
	"secyan/internal/permnet"
)

// Gate-count and wire-cost closed forms for the OEP protocols. The plan
// compiler in internal/core predicts OEP traffic from these without
// materializing switching networks; cost_test.go pins them to the gate
// sequences buildPlan actually produces.

// benesSwaps returns the swap-gate count of a Beneš network of width w
// (a power of two ≥ 2): w·log₂w − w/2.
func benesSwaps(w int) int {
	k := 0
	for 1<<k < w {
		k++
	}
	return w*k - w/2
}

// Gates returns the oblivious-gate count of an OEP from m inputs to n
// outputs: one Beneš network for a bijection, or Pre ‖ duplication
// chain ‖ Post for a general extended permutation.
func Gates(m, n int, bijection bool) int {
	if bijection {
		return benesSwaps(permnet.CeilPow2(maxInt(m, 2)))
	}
	w := permnet.CeilPow2(maxInt(maxInt(m, n), 2))
	return 2*benesSwaps(w) + (w - 1)
}

// Cost returns the total bytes (both directions) of one OEP execution
// over ell-bit shares: the protocol is exactly one correlated-OT batch
// with a MsgLen(ell)-byte message per gate.
func Cost(m, n, ell int, bijection bool) int64 {
	return ot.CorrelatedCost(Gates(m, n, bijection), MsgLen(ell))
}
