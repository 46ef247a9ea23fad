package core

import (
	"fmt"
	"sync"

	"secyan/internal/gc"
	"secyan/internal/gcbaseline"
	"secyan/internal/mpc"
	"secyan/internal/psi"
)

// This file is the backend mechanism behind the plan compiler's
// semijoin and aggregate steps. Each applicable backend submits a bid —
// the exchanges its operator would run, priced by their direct bytes —
// and the compiler picks the cheapest bid (or the forced one, where
// applicable), recording the rejected alternatives on the step for
// Explain.

// BackendID names a secure-join backend. The empty ID means "choose by
// cost" in options; on a compiled PlanStep the ID is always concrete.
type BackendID string

const (
	// BackendPSIOEP is the paper's OPPRF-based circuit PSI + OEP
	// pipeline (internal/psi, internal/oep) — the default path,
	// applicable to every semijoin and aggregate.
	BackendPSIOEP BackendID = "psi-oep"
	// BackendGC is the monolithic garbled-circuit baseline of
	// internal/gcbaseline: a quadratic semijoin circuit with no PSI or
	// OEP, applicable (and occasionally cheapest) at tiny cardinalities.
	// It does not bid for aggregations.
	BackendGC BackendID = "gc"
	// BackendLocal marks steps with no protocol choice: plain-side
	// aggregates and semijoins against empty children, which move only
	// the common multiplication traffic (or nothing).
	BackendLocal BackendID = "local"
)

// ParseBackend parses a user-facing backend name: "" and "auto" mean
// cost-based selection; the concrete names force that backend wherever
// it is applicable (inapplicable steps keep the cost-based choice).
func ParseBackend(s string) (BackendID, error) {
	switch s {
	case "", "auto":
		return "", nil
	case string(BackendPSIOEP):
		return BackendPSIOEP, nil
	case string(BackendGC):
		return BackendGC, nil
	}
	return "", fmt.Errorf("core: unknown backend %q (want auto, psi-oep or gc)", s)
}

// BackendChoice is one entry of a step's pricing table: a backend that
// bid for the step, its estimate, and whether it won.
type BackendChoice struct {
	Backend  BackendID
	EstBytes int64
	Chosen   bool
}

// backendBid is one applicable backend's offer for a plan step: the
// exchanges it would run, in execution order.
type backendBid struct {
	id        BackendID
	exchanges []exchange
}

// gcAlignMaxCombos caps the parent·child comparison pairs at which the
// quadratic GC baseline bids: beyond it the monolithic circuit cannot win
// on cost and pricing it would only slow compilation down.
const gcAlignMaxCombos = 1 << 12

// pickBackend selects a bid: the forced backend if it is among the
// bids, else the minimum estimate (ties keep the earlier bid, and bids
// are enumerated psi-oep first, so ties preserve the default path). It
// returns the winner and the full pricing table.
func pickBackend(bids []backendBid, forced BackendID) (backendBid, []BackendChoice) {
	alts := make([]BackendChoice, len(bids))
	sel := 0
	for i, b := range bids {
		alts[i] = BackendChoice{Backend: b.id, EstBytes: directCost(b.exchanges)}
		if alts[i].EstBytes < alts[sel].EstBytes {
			sel = i
		}
	}
	for i := range bids {
		if forced != "" && bids[i].id == forced {
			sel = i
			break
		}
	}
	alts[sel].Chosen = true
	return bids[sel], alts
}

// aggBids prices an oblivious aggregation (π^⊕ or π¹) of st. Only the
// OEP construction bids: a circuit that also applies the sort
// permutation (the gc backend's shape) loses to it by 6–71 × at every
// size. The §6.5 plain path has no protocol choice.
func aggBids(st nodeState, kind mergeKind, ell int) []backendBid {
	if st.plain || st.n == 0 {
		return []backendBid{{id: BackendLocal}}
	}
	n := st.n
	// The holder programs both OEPs and evaluates π¹'s circuit, so the
	// other party sends every batch: the sort OEP, then for π^⊕ the
	// group-shift OEP, for π¹ the merge circuit's label batch.
	helper := st.holder.Other()
	sortOEP := oepBatch(helper, n, n, ell, true)
	ex := []exchange{sortOEP, sortOEP}
	if kind == mergeOr {
		ex[1] = circuit(helper, projectOneDims(n, ell),
			func() *gc.Circuit { return buildProjectOneCircuit(n, ell) })
	}
	return []backendBid{{id: BackendPSIOEP, exchanges: ex}}
}

// semijoinBids prices every backend applicable to parent ⋈^⊗ child.
// Every bid ends in the common annotation multiplication, which is
// backend-independent: one mulShares batch the parent's other party
// sends.
func semijoinBids(par, child nodeState, ell int) []backendBid {
	finish := func(id BackendID, ex ...exchange) backendBid {
		if par.n > 0 {
			ex = append(ex, mulBatch(par.holder.Other(), par.n, ell))
		}
		return backendBid{id: id, exchanges: ex}
	}
	switch {
	case child.n == 0:
		// The aligned annotations are all-zero locally; only the common
		// multiplication runs.
		return []backendBid{finish(BackendLocal)}
	case len(child.schema.Attrs) == 0:
		// Scalar child: a single extended permutation broadcasts the one
		// annotation; no alternative alignment exists.
		return []backendBid{finish(BackendPSIOEP, oepBatch(par.holder.Other(), child.n, par.n, ell, false))}
	case par.holder == child.holder:
		// Same-party alignment is one OEP over the holder's local index
		// map; PSI and gc address the cross-party case only.
		return []backendBid{finish(BackendPSIOEP, oepBatch(par.holder.Other(), child.n+1, par.n, ell, false))}
	}
	// Cross-party alignment: the contested case. A plain child's PSI
	// carries the annotation as its payload (direct); a shared child's
	// carries an index (§5.5) and runs two OEPs around the bins: ξ1 with
	// reversed roles (the child holder programs it, so the parent holder
	// is the OT sender), ξ2 after them. Then one OEP aligns the bins to
	// the parent's tuples.
	pr := psi.NewParams(par.n, child.n)
	npb := pr.N + pr.B
	ex := make([]exchange, 0, 9)
	if !child.plain {
		ex = append(ex, oepBatch(par.holder, npb, npb, ell, true))
	}
	ex = appendPSIBins(ex, pr, child.holder, ell, !child.plain)
	if !child.plain {
		ex = append(ex, oepBatch(child.holder, npb, pr.B, ell, false))
	}
	bids := []backendBid{finish(BackendPSIOEP, append(ex, oepBatch(child.holder, pr.B, par.n, ell, false))...)}
	// gc: one monolithic circuit comparing every parent key against
	// every child key — quadratic, priced only at tiny cardinalities.
	if par.n > 0 && child.n > 0 && par.n*child.n <= gcAlignMaxCombos {
		m, n := par.n, child.n
		bids = append(bids, finish(BackendGC, circuit(child.holder, gcAlignDims(m, n, ell),
			func() *gc.Circuit { return gcbaseline.AlignCircuit(m, n, ell) })))
	}
	return bids
}

// appendPSIBins appends the bins of one PSI execution with the given PSI
// sender (psi.Demand) to ex: the seed, the KKRT batch, the hint, the ρ-OT
// the PSI receiver sends, and the comparison circuit the sender garbles.
func appendPSIBins(ex []exchange, pr psi.Params, sender mpc.Role, ell int, indexed bool) []exchange {
	d := pr.Demands(ell, indexed)
	v := 0
	if indexed {
		v = 1
	}
	dims := cachedDims(dimsKey{op: "psi", m: pr.M, n: pr.N, ell: ell, variant: v}, func() gc.Dims {
		return gc.DimsOf(d.Circuit())
	})
	return append(ex, plainBytes(d.Seed), exchange{kind: exKKRT, sender: sender, m: pr.B}, plainBytes(d.Hint),
		otBatch(sender.Other(), pr.B, d.RhoLen), circuit(sender, dims, d.Circuit))
}

// dimsCache memoizes the circuit dimensions: candidate-tree enumeration
// in ExplainOpts prices the same (size, width) pairs repeatedly, and
// interpolation garbles probe circuits.
var dimsCache sync.Map

type dimsKey struct {
	op      string
	m, n    int
	ell     int
	variant int
}

func cachedDims(k dimsKey, f func() gc.Dims) *gc.Dims {
	if v, ok := dimsCache.Load(k); ok {
		return v.(*gc.Dims)
	}
	v := f()
	dimsCache.Store(k, &v)
	return &v
}

// projectOneDims returns the dimensions of π¹'s merge circuit. The merge
// chain threads a running indicator through every tuple, so it is one
// slot of n tuples, affine in n from n = 1.
func projectOneDims(n, ell int) *gc.Dims {
	return cachedDims(dimsKey{op: "project-one", n: n, ell: ell}, func() gc.Dims {
		return gc.InterpolateDims(func(m int) *gc.Circuit { return buildProjectOneCircuit(m, ell) }, n)
	})
}

// gcAlignDims returns the dimensions of the gc backend's alignment
// circuit. The per-parent gadget is fixed by the child count, so Dims is
// affine in the parent count m and interpolation over it is exact.
func gcAlignDims(m, n, ell int) *gc.Dims {
	return cachedDims(dimsKey{op: "gc-align", m: m, n: n, ell: ell}, func() gc.Dims {
		return gc.InterpolateDims(func(mm int) *gc.Circuit { return gcbaseline.AlignCircuit(mm, n, ell) }, m)
	})
}
