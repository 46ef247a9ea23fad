package gcbaseline

import (
	"fmt"

	"secyan/internal/gc"
	"secyan/internal/mpc"
)

// This file makes the GC baseline runnable as a real per-operator
// backend (not just the whole-query extrapolation of gcbaseline.go): an
// mpc.Party-driven semijoin alignment and an mpc.Party-driven merge
// aggregation, both returning additive annotation shares compatible
// with the core reveal steps. The circuits are monolithic in the SMCQL
// style — every comparison and the permutation itself happen inside the
// circuit, so no PSI, no OEP and no hashing are needed — which is
// quadratic in the tuple counts and therefore only priced in by the
// planner at tiny cardinalities, where the fixed setup of the
// PSI-based path dominates.

// AlignCircuit compares every parent key against every child key and
// sums the matching child annotations per parent tuple. Evaluator
// (= parent holder) inputs, in order: per child tuple its share of the
// child annotation (ell bits), then per parent tuple its 64-bit key.
// Garbler-private bits per child tuple: the garbler's annotation share,
// then the child key. Garbler inputs per parent tuple: the output mask
// r_j. Output to the evaluator, per parent tuple: z_j - r_j where z_j
// is the annotation of the unique child tuple matching parent key j
// (or 0).
func AlignCircuit(m, n, ell int) *gc.Circuit {
	b := gc.NewBuilder()
	vs := make([]gc.Word, n)
	cks := make([][]gc.PBit, n)
	for i := 0; i < n; i++ {
		ve := b.EvalInputWord(ell)
		vg := b.PrivateWord(ell)
		vs[i] = b.AddPrivate(ve, vg)
		cks[i] = b.PrivateWord(64)
	}
	for j := 0; j < m; j++ {
		pk := b.EvalInputWord(64)
		var z gc.Word
		for i := 0; i < n; i++ {
			masked := b.ANDWordBit(vs[i], b.EqPrivate(pk, cks[i]))
			if i == 0 {
				z = masked
			} else {
				z = b.Add(z, masked)
			}
		}
		r := b.GarblerInputWord(ell)
		b.OutputWordToEval(b.Sub(z, r))
	}
	return b.Build()
}

// RunAlignEvaluator executes the alignment as the parent holder:
// parentKeys are its per-tuple join keys (plaintext to it), childShares
// its shares of the child annotations (zeros when the child is plain).
// It returns its shares of the aligned child annotations, one per
// parent tuple.
func RunAlignEvaluator(p *mpc.Party, parentKeys, childShares []uint64) ([]uint64, error) {
	m, n := len(parentKeys), len(childShares)
	ell := p.Ring.Bits
	circ := AlignCircuit(m, n, ell)
	evalBits := make([]bool, 0, n*ell+m*64)
	for _, v := range childShares {
		evalBits = gc.AppendBits(evalBits, v, ell)
	}
	for _, k := range parentKeys {
		evalBits = gc.AppendBits(evalBits, k, 64)
	}
	out, err := p.RunCircuit(circ, evalBits, nil, p.Role.Other())
	if err != nil {
		return nil, err
	}
	res := make([]uint64, m)
	for j := 0; j < m; j++ {
		res[j] = p.Ring.Mask(gc.UintOfBits(out[j*ell : (j+1)*ell]))
	}
	return res, nil
}

// RunAlignGarbler executes the alignment as the child holder: childKeys
// are the child's distinct join keys, childShares its annotation shares
// (the plaintext annotations when the child is plain), m the public
// parent size. It returns its shares of the aligned annotations.
func RunAlignGarbler(p *mpc.Party, childKeys, childShares []uint64, m int) ([]uint64, error) {
	if len(childKeys) != len(childShares) {
		return nil, fmt.Errorf("gcbaseline: %d keys with %d shares", len(childKeys), len(childShares))
	}
	n := len(childKeys)
	ell := p.Ring.Bits
	circ := AlignCircuit(m, n, ell)
	privBits := make([]bool, 0, n*(ell+64))
	for i := 0; i < n; i++ {
		privBits = gc.AppendBits(privBits, childShares[i], ell)
		privBits = gc.AppendBits(privBits, childKeys[i], 64)
	}
	res := make([]uint64, m)
	garblerBits := make([]bool, 0, m*ell)
	for j := 0; j < m; j++ {
		r := p.Ring.Random(p.PRG)
		res[j] = r
		garblerBits = gc.AppendBits(garblerBits, r, ell)
	}
	if _, err := p.RunCircuit(circ, garblerBits, privBits, p.Role); err != nil {
		return nil, err
	}
	return res, nil
}

// MergeCircuit aggregates annotation shares by group entirely inside
// the circuit: the holder's sort permutation enters as one-hot selector
// bits, so no OEP precedes it (the baseline's defining trait). Inputs,
// in evaluator order: per tuple its annotation share (original order,
// ell bits); then per sorted position i a one-hot row of n selector
// bits (sel_ij = 1 iff sorted position i holds original tuple j); then
// the n-1 group-boundary bits of the sorted order. Garbler-private bits
// per tuple: its annotation share (original order). Garbler inputs per
// sorted position: the output mask. Output to the evaluator, per sorted
// position: the merge-chain output minus the mask — identical group
// semantics to core's merge-gate chain (sum when or is false, the
// nonzero-OR indicator otherwise).
func MergeCircuit(n, ell int, or bool) *gc.Circuit {
	b := gc.NewBuilder()
	vs := make([]gc.Word, n)
	for j := 0; j < n; j++ {
		ve := b.EvalInputWord(ell)
		vg := b.PrivateWord(ell)
		vs[j] = b.AddPrivate(ve, vg)
	}
	ws := make([]gc.Word, n)
	for i := 0; i < n; i++ {
		var w gc.Word
		for j := 0; j < n; j++ {
			masked := b.ANDWordBit(vs[j], b.EvalInput())
			if j == 0 {
				w = masked
			} else {
				w = b.Add(w, masked)
			}
		}
		ws[i] = w
	}
	eqs := make([]gc.Wire, n)
	for i := 1; i < n; i++ {
		eqs[i] = b.EvalInput()
	}
	outs := make([]gc.Word, n)
	if or {
		run := b.NonZero(ws[0])
		for i := 1; i < n; i++ {
			outs[i-1] = b.ZeroExtend(gc.Word{b.AND(run, b.Not(eqs[i]))}, ell)
			run = b.OR(b.AND(run, eqs[i]), b.NonZero(ws[i]))
		}
		outs[n-1] = b.ZeroExtend(gc.Word{run}, ell)
	} else {
		run := ws[0]
		for i := 1; i < n; i++ {
			outs[i-1] = b.ANDWordBit(run, b.Not(eqs[i]))
			run = b.Add(b.ANDWordBit(run, eqs[i]), ws[i])
		}
		outs[n-1] = run
	}
	for i := 0; i < n; i++ {
		r := b.GarblerInputWord(ell)
		b.OutputWordToEval(b.Sub(outs[i], r))
	}
	return b.Build()
}

// RunMergeEvaluator executes the merge as the holder: myShares are its
// annotation shares in original tuple order, perm its sort permutation
// (perm[i] = original index at sorted position i), eq the n-1 sorted
// group-boundary bits (eq[i-1] ⇔ sorted rows i-1 and i share a group).
// It returns its shares of the aggregated annotations in sorted order —
// the order in which the holder rebuilds the output relation.
func RunMergeEvaluator(p *mpc.Party, myShares []uint64, perm []int, eq []bool, or bool) ([]uint64, error) {
	n := len(myShares)
	if len(perm) != n || len(eq) != n-1 {
		return nil, fmt.Errorf("gcbaseline: merge inputs n=%d perm=%d eq=%d", n, len(perm), len(eq))
	}
	ell := p.Ring.Bits
	circ := MergeCircuit(n, ell, or)
	evalBits := make([]bool, 0, n*ell+n*n+n-1)
	for _, v := range myShares {
		evalBits = gc.AppendBits(evalBits, v, ell)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			evalBits = append(evalBits, perm[i] == j)
		}
	}
	for _, e := range eq {
		evalBits = append(evalBits, e)
	}
	out, err := p.RunCircuit(circ, evalBits, nil, p.Role.Other())
	if err != nil {
		return nil, err
	}
	res := make([]uint64, n)
	for i := 0; i < n; i++ {
		res[i] = p.Ring.Mask(gc.UintOfBits(out[i*ell : (i+1)*ell]))
	}
	return res, nil
}

// RunMergeGarbler executes the merge as the non-holder with its
// annotation shares in original tuple order, returning its shares of
// the aggregated annotations (the drawn masks, in sorted order).
func RunMergeGarbler(p *mpc.Party, myShares []uint64, or bool) ([]uint64, error) {
	n := len(myShares)
	ell := p.Ring.Bits
	circ := MergeCircuit(n, ell, or)
	privBits := make([]bool, 0, n*ell)
	for _, v := range myShares {
		privBits = gc.AppendBits(privBits, v, ell)
	}
	res := make([]uint64, n)
	garblerBits := make([]bool, 0, n*ell)
	for i := 0; i < n; i++ {
		r := p.Ring.Random(p.PRG)
		res[i] = r
		garblerBits = gc.AppendBits(garblerBits, r, ell)
	}
	if _, err := p.RunCircuit(circ, garblerBits, privBits, p.Role); err != nil {
		return nil, err
	}
	return res, nil
}

// AlignCost predicts the total bytes (both directions) of one
// RunAlignEvaluator/RunAlignGarbler execution. The per-parent gadget is
// fixed by the child count, so Dims is affine in m and interpolation
// over the parent side is exact.
func AlignCost(m, n, ell int) int64 {
	if m == 0 {
		return 0
	}
	d := gc.InterpolateDims(func(mm int) *gc.Circuit { return AlignCircuit(mm, n, ell) }, m)
	return d.MessageCost()
}

// MergeCost predicts the total bytes of one merge execution. The
// selector matrix makes the circuit quadratic in n — one fixed gadget
// per (sorted position, tuple) pair on top of the per-tuple chain — so
// Dims is a degree-2 polynomial in n and three tiny probes fix it.
func MergeCost(n, ell int, or bool) int64 {
	if n == 0 {
		return 0
	}
	d := gc.InterpolateDimsQuadratic(func(nn int) *gc.Circuit { return MergeCircuit(nn, ell, or) }, n)
	return d.MessageCost()
}
