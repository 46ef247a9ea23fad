package core

import (
	"sync"

	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/psi"
)

// This file declares the exchanges of the plan compiler's aggregate and
// semijoin steps: each builder replays the dispatch logic of its operator
// (aggregate.go, semijoin.go) on public state, so the plan's estimates
// and Precompute's sweeps follow from the returned list alone.

// aggExchanges declares an oblivious aggregation (π^⊕ or π¹) of st. The
// §6.5 plain path and an empty relation move nothing.
func aggExchanges(st nodeState, kind mergeKind, ell int) []exchange {
	if st.plain || st.n == 0 {
		return nil
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
	return ex
}

// semijoinExchanges declares parent ⋈^⊗ child. Every case ends in the
// annotation multiplication: one mulShares batch the parent's other party
// sends, of one term per product while the parent is plain.
func semijoinExchanges(par, child nodeState, ell int) []exchange {
	var ex []exchange
	switch {
	case child.n == 0:
		// The aligned annotations are all-zero locally; only the
		// multiplication runs.
	case len(child.schema.Attrs) == 0:
		// Scalar child: a single extended permutation broadcasts the one
		// annotation.
		ex = append(ex, oepBatch(par.holder.Other(), child.n, par.n, ell, false))
	case par.holder == child.holder:
		// Same-party alignment is one OEP over the holder's local index
		// map.
		ex = append(ex, oepBatch(par.holder.Other(), child.n+1, par.n, ell, false))
	default:
		// Cross-party alignment. A plain child's PSI carries the
		// annotation as its payload (direct); a shared child's carries an
		// index (§5.5) and runs two OEPs around the bins: ξ1 with reversed
		// roles (the child holder programs it, so the parent holder is the
		// OT sender), ξ2 after them. Then one OEP aligns the bins to the
		// parent's tuples.
		pr := psi.NewParams(par.n, child.n)
		npb := pr.N + pr.B
		ex = make([]exchange, 0, 9)
		if !child.plain {
			ex = append(ex, oepBatch(par.holder, npb, npb, ell, true))
		}
		ex = appendPSIBins(ex, pr, child.holder, ell, !child.plain)
		if !child.plain {
			ex = append(ex, oepBatch(child.holder, npb, pr.B, ell, false))
		}
		ex = append(ex, oepBatch(child.holder, pr.B, par.n, ell, false))
	}
	if par.n > 0 {
		terms := 2
		if par.plain {
			terms = 1
		}
		ex = append(ex, productBatch(par.holder.Other(), par.n, ell, terms))
	}
	return ex
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
