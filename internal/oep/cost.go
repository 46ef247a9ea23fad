package oep

import "secyan/internal/permnet"

// Gate-count closed forms for the OEP protocols. An OEP is exactly one
// correlated-OT batch with a MsgLen(ell)-byte message per gate, so the
// plan compiler in internal/core predicts its traffic from Gates and
// ot's closed forms without materializing switching networks;
// cost_test.go pins Gates to the gate sequences buildPlan actually
// produces, and the traffic to ot's closed forms.

// Gates returns the oblivious-gate count of an OEP from m inputs to n
// outputs: one Beneš network for a bijection, or Pre ‖ duplication
// chain ‖ Post for a general extended permutation.
func Gates(m, n int, bijection bool) int {
	if bijection {
		return permnet.BenesSwaps(permnet.CeilPow2(maxInt(m, 2)))
	}
	w := permnet.CeilPow2(maxInt(maxInt(m, n), 2))
	return 2*permnet.BenesSwaps(w) + (w - 1)
}
