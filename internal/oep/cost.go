package oep

import "secyan/internal/permnet"

// Gate-count closed forms for the OEP protocols. An OEP is exactly one
// correlated-OT batch with a MsgLen(ell)-byte message per gate, so the
// plan compiler in internal/core predicts its traffic from Gates and
// ot's closed forms without materializing switching networks;
// cost_test.go pins Gates to the gate sequences buildPlan actually
// produces, and the traffic to ot's closed forms.

// Gates returns the oblivious-gate count of an OEP from m inputs to n
// outputs: one AS-Waksman network over m wires for a bijection, or
// Pre (max(m, n) wires) ‖ duplication chain (n − 1) ‖ Post (n wires) for
// a general extended permutation, and nothing when there are no outputs.
func Gates(m, n int, bijection bool) int {
	if bijection {
		return permnet.Swaps(m)
	}
	if n == 0 {
		return 0
	}
	return permnet.Swaps(max(m, n)) + n - 1 + permnet.Swaps(n)
}
