package core

import (
	"fmt"
	"sync"

	"secyan/internal/gc"
	"secyan/internal/gcbaseline"
	"secyan/internal/oep"
	"secyan/internal/ot"
	"secyan/internal/psi"
)

// This file is the backend mechanism behind the plan compiler's
// semijoin and aggregate steps. Each applicable backend submits a bid —
// its byte estimate plus the precompute demands (OT batches, circuits)
// and OT-extension directions it would consume — and the compiler picks
// the cheapest bid (or the forced one, where applicable), recording the
// rejected alternatives on the step for Explain.

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
// byte estimate, the OT-extension directions it needs (indexed by
// sending role — copied from the operator dispatch, never derived from
// the batch list), and the precompute demands in execution order.
type backendBid struct {
	id    BackendID
	cost  int64
	needs [2]bool
	ots   []preOT
	circs []preCirc
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
	sel := -1
	if forced != "" {
		for i := range bids {
			if bids[i].id == forced {
				sel = i
				break
			}
		}
	}
	if sel < 0 {
		sel = 0
		for i := 1; i < len(bids); i++ {
			if bids[i].cost < bids[sel].cost {
				sel = i
			}
		}
	}
	alts := make([]BackendChoice, len(bids))
	for i, b := range bids {
		alts[i] = BackendChoice{Backend: b.id, EstBytes: b.cost, Chosen: i == sel}
	}
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
	// other party sends every batch: one OT per gate of the sort OEP,
	// then for π^⊕ one per gate of the group-shift OEP, for π¹ the
	// circuit's n·ℓ share bits and n−1 group-boundary bits.
	helper := st.holder.Other()
	sortOEP := oepOTs(helper, n, n, ell, true)
	b := backendBid{id: BackendPSIOEP, cost: oep.Cost(n, n, ell, true), ots: []preOT{sortOEP}}
	b.needs[helper] = true
	switch kind {
	case mergeSum:
		b.cost += oep.Cost(n, n, ell, true)
		b.ots = append(b.ots, sortOEP)
	case mergeOr:
		b.cost += projectOneCost(n, ell)
		b.ots = append(b.ots, labelOTs(helper, n*(ell+1)-1))
		b.circs = []preCirc{{garbler: helper,
			build: func() *gc.Circuit { return buildProjectOneCircuit(n, ell) }}}
	}
	return []backendBid{b}
}

// semijoinBids prices every backend applicable to parent ⋈^⊗ child.
// Every bid includes the common annotation-multiplication tail, which
// is backend-independent.
func semijoinBids(par, child nodeState, ell int) []backendBid {
	finish := func(b backendBid) backendBid {
		b.cost += mulCost(par.n, ell)
		if par.n > 0 {
			b.needs[par.holder.Other()] = true
			b.ots = append(b.ots, preOT{sender: par.holder.Other(), m: mulOTs(par.n, ell), msgLen: mulMsgLen(ell)})
		}
		return b
	}
	switch {
	case child.n == 0:
		// The aligned annotations are all-zero locally; only the common
		// multiplication runs.
		return []backendBid{finish(backendBid{id: BackendLocal})}
	case len(child.schema.Attrs) == 0:
		// Scalar child: a single extended permutation broadcasts the one
		// annotation; no alternative alignment exists.
		b := backendBid{id: BackendPSIOEP,
			cost: oep.Cost(child.n, par.n, ell, false),
			ots:  []preOT{oepOTs(par.holder.Other(), child.n, par.n, ell, false)}}
		b.needs[par.holder.Other()] = true
		return []backendBid{finish(b)}
	case par.holder == child.holder:
		// Same-party alignment is one OEP over the holder's local index
		// map; PSI and gc address the cross-party case only.
		b := backendBid{id: BackendPSIOEP,
			cost: oep.Cost(child.n+1, par.n, ell, false),
			ots:  []preOT{oepOTs(par.holder.Other(), child.n+1, par.n, ell, false)}}
		b.needs[par.holder.Other()] = true
		return []backendBid{finish(b)}
	}
	// Cross-party alignment: the contested case. A plain child's PSI
	// carries the annotation as its payload (direct); a shared child's
	// carries an index (§5.5) and adds two OEPs around the bins. Either
	// runs one OPRF batch and one per-bin circuit with the child holder as
	// OT sender, and between them the ρ-OT with the parent holder as OT
	// sender.
	var bids []backendBid
	{
		pr := psi.NewParams(par.n, child.n)
		npb := pr.N + pr.B
		b := backendBid{id: BackendPSIOEP, cost: psiCost(par.n, child.n, ell, child.plain)}
		b.needs[child.holder] = true
		b.needs[par.holder] = true
		if !child.plain {
			// ξ1 runs with reversed roles: the child holder programs the
			// permutation, so the parent holder is the OT sender.
			b.ots = append(b.ots, oepOTs(par.holder, npb, npb, ell, true))
		}
		d := pr.Demands(ell, !child.plain)
		b.circs = append(b.circs, preCirc{child.holder, d.Circuit})
		b.ots = append(b.ots,
			preOT{sender: child.holder, m: d.OPRF, msgLen: 16, kind: otRandom},
			preOT{sender: par.holder, m: d.Rho, msgLen: d.RhoLen},
			labelOTs(child.holder, d.Labels))
		if !child.plain {
			b.ots = append(b.ots, oepOTs(child.holder, npb, pr.B, ell, false))
		}
		b.cost += oep.Cost(pr.B, par.n, ell, false)
		b.ots = append(b.ots, oepOTs(child.holder, pr.B, par.n, ell, false))
		bids = append(bids, finish(b))
	}
	// gc: one monolithic circuit comparing every parent key against
	// every child key — quadratic, priced only at tiny cardinalities.
	// Evaluator inputs: the child-share words then the parent keys.
	if par.n > 0 && child.n > 0 && par.n*child.n <= gcAlignMaxCombos {
		m, n := par.n, child.n
		b := backendBid{id: BackendGC,
			cost: gcAlignCost(m, n, ell),
			ots:  []preOT{labelOTs(child.holder, n*ell+m*64)},
			circs: []preCirc{{child.holder,
				func() *gc.Circuit { return gcbaseline.AlignCircuit(m, n, ell) }}}}
		b.needs[par.holder.Other()] = true
		bids = append(bids, finish(b))
	}
	return bids
}

// costCache memoizes the circuit-dimension predictors: candidate-tree
// enumeration in ExplainOpts prices the same (size, width) pairs
// repeatedly, and interpolation garbles probe circuits.
var costCache sync.Map

type costKey struct {
	op      string
	m, n    int
	ell     int
	variant int
}

func cachedCost(k costKey, f func() int64) int64 {
	if v, ok := costCache.Load(k); ok {
		return v.(int64)
	}
	v := f()
	costCache.Store(k, v)
	return v
}

func projectOneCost(n, ell int) int64 {
	return cachedCost(costKey{op: "project-one", n: n, ell: ell}, func() int64 {
		// The merge chain threads a running indicator through every
		// tuple, so it is one slot of n tuples, affine in n from n = 1.
		return gc.InterpolateDims(func(m int) *gc.Circuit { return buildProjectOneCircuit(m, ell) }, n).MessageCost()
	})
}

// mulCost prices mulShares: one correlated-OT batch (see semijoin.go).
func mulCost(n, ell int) int64 { return ot.CorrelatedCost(mulOTs(n, ell), mulMsgLen(ell)) }

// psiCost prices a semijoin's cross-party PSI: the direct one for a
// plain child (§6.5), the indexed one for a secret-shared child (§5.5).
func psiCost(m, n, ell int, plain bool) int64 {
	if plain {
		return cachedCost(costKey{op: "psi-direct", m: m, n: n, ell: ell}, func() int64 {
			return psi.DirectCost(m, n, ell)
		})
	}
	return cachedCost(costKey{op: "psi-indexed", m: m, n: n, ell: ell}, func() int64 {
		return psi.IndexedCost(m, n, ell)
	})
}

func gcAlignCost(m, n, ell int) int64 {
	return cachedCost(costKey{op: "gc-align", m: m, n: n, ell: ell}, func() int64 {
		return gcbaseline.AlignCost(m, n, ell)
	})
}
