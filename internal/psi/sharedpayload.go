package psi

import (
	"fmt"
	"math/bits"

	"secyan/internal/mpc"
	"secyan/internal/oep"
)

// This file implements "PSI with secret-shared payloads" (paper §5.5),
// the PSI of a semijoin whose child annotations are secret-shared: the
// sender's payloads z_j are additively shared between the parties, so
// they cannot enter the hint as they are. Following the paper:
//
//  1. both parties extend the shares {⟦z_j⟧}_{j≤N} with B shares of zero;
//  2. Bob draws a random permutation ξ₁ of [N+B] and an OEP (Bob as
//     programmer) re-shares the extended vector as z'_k = z_{ξ₁(k)};
//  3. the parties run the per-bin protocol where the payload of y_j is
//     the *index* ξ₁⁻¹(j), and the receiver learns, per bin i, the value
//     k_i = ξ₁⁻¹(j) on a match and k_i = ξ₁⁻¹(N+i) otherwise — a uniform
//     sample of distinct values that carries no information;
//  4. a second OEP (Alice as programmer, ξ₂(i) = k_i) maps the z' shares
//     to per-bin payload shares z''_i, which equal z_j on a match and 0
//     otherwise.
//
// The intersection indicator is produced in shared form exactly as in
// RunReceiver/RunSender.

// idxWidth returns the circuit width for clear index outputs over [0, n).
func idxWidth(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len64(uint64(n - 1))
}

// RunSharedPayloadReceiver executes §5.5 as Alice. xs are her distinct
// elements, nSender is the public size of Bob's set, and myPayShares are
// her shares of Bob's N payloads. The result carries per-bin shares of the
// indicator and payload, plus her cuckoo table.
func RunSharedPayloadReceiver(p *mpc.Party, xs []uint64, nSender int, myPayShares []uint64) (*Result, error) {
	if len(myPayShares) != nSender {
		return nil, fmt.Errorf("psi: receiver holds %d payload shares, want %d", len(myPayShares), nSender)
	}
	pr := NewParams(len(xs), nSender)
	sp := kIndexedRecv.Begin()
	defer sp.EndN(int64(pr.B))
	npb := pr.N + pr.B

	// Steps 1-2: extend with zero shares; Bob permutes them by ξ₁.
	ext := make([]uint64, npb)
	copy(ext, myPayShares)
	zp, err := oep.RunPermuteHelper(p, npb, ext)
	if err != nil {
		return nil, fmt.Errorf("psi: ξ1 OEP: %w", err)
	}

	// Step 3: PSI whose per-bin output is the selected index, in the clear.
	table, idx, ind, err := recvBins(p, pr, idxWidth(npb), xs)
	if err != nil {
		return nil, err
	}
	xi := make([]int, pr.B)
	for bin, k := range idx {
		if k >= uint64(npb) {
			return nil, fmt.Errorf("psi: revealed index %d out of range %d", k, npb)
		}
		xi[bin] = int(k)
	}

	// Step 4: Alice programs the second OEP with ξ₂(i) = k_i.
	pays, err := oep.RunProgrammer(p, xi, npb, zp)
	if err != nil {
		return nil, fmt.Errorf("psi: ξ2 OEP: %w", err)
	}
	return &Result{Params: pr, Table: table, IndShares: ind, PayShares: pays}, nil
}

// RunSharedPayloadSender executes §5.5 as Bob with distinct elements ys,
// his shares of the N payloads, and the public receiver set size
// mReceiver. A repeated element is ErrDuplicateKey: shared payloads
// cannot be merged locally.
func RunSharedPayloadSender(p *mpc.Party, ys []uint64, myPayShares []uint64, mReceiver int) (*Result, error) {
	if len(ys) != len(myPayShares) {
		return nil, fmt.Errorf("psi: %d elements with %d payload shares", len(ys), len(myPayShares))
	}
	seen := make(map[uint64]struct{}, len(ys))
	for _, y := range ys {
		if _, dup := seen[y]; dup {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateKey, y)
		}
		seen[y] = struct{}{}
	}
	pr := NewParams(mReceiver, len(ys))
	sp := kIndexedSend.Begin()
	defer sp.EndN(int64(pr.B))
	npb := pr.N + pr.B

	// Steps 1-2: extend and permute obliviously by a fresh random ξ₁.
	xi1 := p.PRG.Perm(npb)
	inv := make([]uint64, npb)
	for k, src := range xi1 {
		inv[src] = uint64(k)
	}
	ext := make([]uint64, npb)
	copy(ext, myPayShares)
	zp, err := oep.RunPermuteProgrammer(p, xi1, ext)
	if err != nil {
		return nil, fmt.Errorf("psi: ξ1 OEP: %w", err)
	}

	// Step 3: PSI with index payloads ξ₁⁻¹(j) and per-bin defaults
	// ξ₁⁻¹(N+i).
	ind, err := sendBins(p, pr, idxWidth(npb), ys,
		func(j, _ int) uint64 { return inv[j] }, inv[pr.N:])
	if err != nil {
		return nil, err
	}

	// Step 4: helper side of Alice's ξ₂ OEP.
	pays, err := oep.RunHelper(p, npb, pr.B, zp)
	if err != nil {
		return nil, fmt.Errorf("psi: ξ2 OEP: %w", err)
	}
	return &Result{Params: pr, IndShares: ind, PayShares: pays}, nil
}
