package psi

import (
	"fmt"
	"math/bits"

	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/oep"
)

// This file implements "PSI with secret-shared payloads" (paper §5.5):
// the sender's payloads z_j are themselves additively shared between the
// parties, so they cannot enter the comparison circuit in plaintext.
// Following the paper:
//
//  1. both parties extend the shares {⟦z_j⟧}_{j≤N} with B shares of zero;
//  2. Bob draws a random permutation ξ₁ of [N+B] and an OEP (Bob as
//     programmer) re-shares the extended vector as z'_k = z_{ξ₁(k)};
//  3. the parties run PSI where the payload of y_j is the *index*
//     ξ₁⁻¹(j), programmed into the hint under a per-bin mask, and the
//     circuit reveals to Alice, per bin i, the value
//     k_i = ξ₁⁻¹(j) on a match and k_i = ξ₁⁻¹(N+i) otherwise — a uniform
//     sample of distinct values that carries no information;
//  4. a second OEP (Alice as programmer, ξ₂(i) = k_i) maps the z' shares
//     to per-bin payload shares z''_i, which equal z_j on a match and 0
//     otherwise.
//
// The intersection indicator is still produced in shared form as in the
// plain protocol.

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
	return runIndexedReceiver(p, xs, nSender, myPayShares, false)
}

// RunIndexedPlainReceiver is the receiver side of the plain-payload
// variant of the indexed construction (§6.5 fast path): the sender knows
// his payloads, so the first OEP is replaced by a free local shuffle on
// his side; the receiver holds zero shares throughout.
func RunIndexedPlainReceiver(p *mpc.Party, xs []uint64, nSender int) (*Result, error) {
	return runIndexedReceiver(p, xs, nSender, nil, true)
}

func runIndexedReceiver(p *mpc.Party, xs []uint64, nSender int, myPayShares []uint64, plain bool) (*Result, error) {
	pr := NewParams(len(xs), nSender)
	sp := obs.Begin("psi", "psi.indexed.recv")
	defer sp.EndN(int64(pr.B))
	defer observeRun(pr.B, len(xs))()
	npb := pr.N + pr.B

	// Step 1-2: extend with zero shares; Bob permutes — via OEP when the
	// payloads are shared, locally (free) when he knows them.
	var zp []uint64
	if plain {
		zp = make([]uint64, npb)
	} else {
		ext := make([]uint64, npb)
		copy(ext, myPayShares)
		var err error
		zp, err = oep.RunPermuteHelper(p, npb, ext)
		if err != nil {
			return nil, fmt.Errorf("psi: ξ1 OEP: %w", err)
		}
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
	return runIndexedSender(p, ys, myPayShares, mReceiver, false)
}

// RunIndexedPlainSender is the sender side of the plain-payload variant:
// payloads are this party's plaintext values. Duplicates in ys sum their
// payloads, as in RunSender.
func RunIndexedPlainSender(p *mpc.Party, ys []uint64, payloads []uint64, mReceiver int) (*Result, error) {
	if len(ys) != len(payloads) {
		return nil, fmt.Errorf("psi: %d elements with %d payloads", len(ys), len(payloads))
	}
	return runIndexedSender(p, ys, payloads, mReceiver, true)
}

func runIndexedSender(p *mpc.Party, ys []uint64, myPayShares []uint64, mReceiver int, plain bool) (*Result, error) {
	pr := NewParams(mReceiver, len(ys))
	sp := obs.Begin("psi", "psi.indexed.send")
	defer sp.EndN(int64(pr.B))
	defer observeRun(pr.B, len(ys))()
	npb := pr.N + pr.B
	if plain {
		// Merged duplicates leave the tail of the N payload slots zero and
		// unreferenced; the public sizes do not move.
		ys, myPayShares = mergeDuplicates(p.Ring, ys, myPayShares)
	}

	// Steps 1-2: extend and permute by a fresh random ξ₁ — obliviously
	// when the payloads are shared; as a free local shuffle when this
	// party knows them (its "share" is the value, the peer's is zero).
	xi1 := p.PRG.Perm(npb)
	inv := make([]uint64, npb)
	for k, src := range xi1 {
		inv[src] = uint64(k)
	}
	ext := make([]uint64, npb)
	copy(ext, myPayShares)
	var zp []uint64
	if plain {
		zp = make([]uint64, npb)
		for k := range zp {
			zp[k] = ext[xi1[k]]
		}
	} else {
		var err error
		zp, err = oep.RunPermuteProgrammer(p, xi1, ext)
		if err != nil {
			return nil, fmt.Errorf("psi: ξ1 OEP: %w", err)
		}
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
