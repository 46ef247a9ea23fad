package core

import (
	"fmt"

	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/relation"
)

// This file implements the oblivious projection-aggregation operators of
// paper §6.1: π^⊕ and π¹ (runMerge). The holder sorts its relation by
// the group-by attributes and a bijective OEP re-aligns the shared
// annotations with the sorted order. The output relation keeps
// exactly N tuples: the last tuple of each group carries the group's
// aggregate (in shares); every other position becomes a dummy tuple
// annotated with a fresh share of zero.
//
//   - π^⊕ needs no circuit (groupSums). Both parties take prefix sums P of
//     their sorted shares, and a second bijective OEP programmed by the
//     holder hands each group end the prefix sum at the previous group end
//     and every other position its own, so P minus the OEP's output is the
//     group's sum at its end and zero elsewhere.
//   - π¹ must test annotations for zero, which shares cannot do locally:
//     one garbled circuit chains N−1 merge gates over the sorted shares
//     and the holder's group-boundary bits.

// mergeKind selects the aggregation: π^⊕ or π¹.
type mergeKind int

const (
	mergeSum mergeKind = iota // π^⊕ over (Z_{2^ℓ}, +)
	mergeOr                   // π¹: OR of nonzero indicators
)

// buildProjectOneCircuit constructs π¹'s merge-gate chain for n tuples
// over ell-bit annotations.
//
// Evaluator (= holder) inputs, in order per tuple i: its share of v_i
// (ell bits), then for i ≥ 1 the group-boundary bit eq_i =
// Ind(t_{i-1} ≈ t_i). Garbler-private bits: per tuple the negation of its
// share of v_i, then per tuple the negated output mask -r_i. Outputs to
// the evaluator: out_i + (-r_i) where out_i is 1 at the last position of
// each group holding a nonzero annotation and 0 elsewhere.
func buildProjectOneCircuit(n, ell int) *gc.Circuit {
	b := gc.NewBuilder()
	nz := make([]gc.Wire, n)
	eq := make([]gc.Wire, n)
	for i := range nz {
		// v_i ≠ 0 ⇔ the evaluator's share differs from minus the garbler's.
		nz[i] = b.Not(b.EqPrivate(b.EvalInputWord(ell), b.PrivateWord(ell)))
		if i > 0 {
			eq[i] = b.EvalInput()
		}
	}
	outs := make([]gc.Wire, n)
	run := nz[0]
	for i := 1; i < n; i++ {
		outs[i-1] = b.AND(run, b.Not(eq[i]))
		run = b.OR(b.AND(run, eq[i]), nz[i])
	}
	outs[n-1] = run
	for _, out := range outs {
		b.OutputWordToEval(b.AddPrivate(b.ZeroExtend(gc.Word{out}, ell), b.PrivateWord(ell)))
	}
	return b.Build()
}

// runMerge runs the aggregation on c's step, local or oblivious. The
// holder never materializes its sorted relation: the group-boundary scan
// and the output relation walk the sort permutation.
func runMerge(c *cursor, dg *relation.DummyGen, s *SharedRelation, groupBy []relation.Attr, kind mergeKind) (*SharedRelation, error) {
	out := &SharedRelation{Holder: s.Holder, N: s.N}
	var err error
	if out.Schema, err = relation.NewSchema(groupBy...); err != nil {
		return nil, err
	}
	holder := c.p.Role == s.Holder
	var perm, cols []int
	var eq []bool // the holder's sorted view; nil on the other side
	if holder {
		if cols, err = s.Schema.Positions(groupBy); err != nil {
			return nil, err
		}
		perm = relation.SortPermByColumns(s.Rel, cols)
		eq = groupBoundaries(s, perm, cols)
	}
	if c.st.variant == varLocal {
		out.Plain, out.Annot = s.Plain, localMerge(c.p, s, perm, eq, kind)
	} else if out.Annot, err = c.oep(perm, s.N, s.N, s.Annot, true); err != nil { // sorted shares
		return nil, fmt.Errorf("core: aggregate OEP: %w", err)
	} else if kind == mergeSum {
		out.Annot, err = groupSums(c, out.Annot, eq)
	} else {
		out.Annot, err = projectOne(c, out.Annot, eq, s.Holder)
	}
	if err != nil {
		return nil, err
	}
	if holder {
		out.Rel = mergeOutputRel(s, perm, cols, eq, out.Schema, dg)
	}
	return out, nil
}

// groupBoundaries walks the holder's sorted view once: eq[i] reports
// whether sorted rows i−1 and i agree on cols, i.e. fall in the same
// group (eq[0] is false).
func groupBoundaries(s *SharedRelation, perm, cols []int) []bool {
	eq := make([]bool, len(perm))
	for i := 1; i < len(perm); i++ {
		prev, row := s.Rel.Tuples[perm[i-1]], s.Rel.Tuples[perm[i]]
		eq[i] = true
		for _, c := range cols {
			eq[i] = eq[i] && prev[c] == row[c]
		}
	}
	return eq
}

// groupShift is the holder's program for π^⊕'s second OEP: output i reads
// input groupShift(eq)[i]. Every position reads itself except the group
// ends e₁ < … < e_k (e_k = n−1 always): e_g reads e_{g−1}, and e₁ reads
// slot n−1. The ends map onto the ends, so the program is a permutation.
// The other party, with no eq, has no program.
func groupShift(eq []bool) []int {
	if eq == nil {
		return nil
	}
	n := len(eq)
	sigma := make([]int, n)
	prevEnd := n - 1
	for i := range sigma {
		sigma[i] = i
		if i == n-1 || !eq[i+1] {
			sigma[i], prevEnd = prevEnd, i
		}
	}
	return sigma
}

// groupSums finishes π^⊕ from fresh shares y of the sorted annotations:
// each party takes prefix sums P of its own shares, zeroes its share of
// P at slot n−1 — which only e₁ reads, and e₁ must subtract nothing — and
// runs the second OEP over the result, programmed by the holder with
// groupShift(eq). out_i = P_i − P_{σ(i)} is then the group's sum at every
// group end and zero elsewhere, and fresh everywhere because the OEP
// re-randomizes every output.
func groupSums(c *cursor, y []uint64, eq []bool) ([]uint64, error) {
	p, n := c.p, len(y)
	sums := make([]uint64, n)
	var acc uint64
	for i, v := range y {
		acc += v
		sums[i] = acc
	}
	prev, err := c.oep(groupShift(eq), n, n, append(sums[:n-1:n-1], 0), true)
	if err != nil {
		return nil, fmt.Errorf("core: aggregate OEP: %w", err)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = p.Ring.Mask(sums[i] - prev[i])
	}
	return out, nil
}

// projectOne runs π¹'s merge chain over the sorted shares. The holder
// (eq != nil) evaluates it on its shares and group-boundary bits; the
// other party garbles it on its negated shares, then its negated output
// masks (buildProjectOneCircuit's order), the masks being its shares.
func projectOne(c *cursor, sorted []uint64, eq []bool, holder mpc.Role) ([]uint64, error) {
	p, n, ell := c.p, len(sorted), c.p.Ring.Bits
	annot := make([]uint64, n)
	if eq == nil {
		priv := make([]bool, 0, 2*n*ell)
		for _, v := range sorted {
			priv = gc.AppendBits(priv, p.Ring.Neg(v), ell)
		}
		for i := range annot {
			annot[i] = p.Ring.Random(p.PRG)
			priv = gc.AppendBits(priv, p.Ring.Neg(annot[i]), ell)
		}
		if _, err := c.circuit(holder.Other(), nil, priv); err != nil {
			return nil, err
		}
		return annot, nil
	}
	evalBits := make([]bool, 0, n*(ell+1))
	for i, v := range sorted {
		evalBits = gc.AppendBits(evalBits, v, ell)
		if i > 0 {
			evalBits = append(evalBits, eq[i])
		}
	}
	out, err := c.circuit(holder.Other(), evalBits, nil)
	if err != nil {
		return nil, err
	}
	for j := range annot {
		annot[j] = p.Ring.Mask(gc.UintOfBits(out[j*ell : (j+1)*ell]))
	}
	return annot, nil
}

// mergeOutputRel rebuilds the holder-side output relation of a merge in
// one pass over the sorted view: the last row of each group (the next
// row's eq is false) keeps its group values; every other row becomes a
// fresh dummy.
func mergeOutputRel(s *SharedRelation, perm, cols []int, eq []bool, outSchema relation.Schema, dg *relation.DummyGen) *relation.Relation {
	res := relation.NewCap(outSchema, len(perm))
	for i, old := range perm {
		last := i == len(perm)-1 || !eq[i+1]
		row := make([]uint64, len(cols))
		for c, cc := range cols {
			if last {
				row[c] = s.Rel.Tuples[old][cc]
			} else {
				row[c] = dg.Next()
			}
		}
		res.Append(row, 0)
	}
	return res
}

// localMerge aggregates without moving anything (§6.5): the holder
// knows the annotations, or there are none. Each sorted group's last
// position gets its aggregate, every other one 0 — the oblivious
// protocol's output structure. The other party, with no sorted view,
// holds zeros.
func localMerge(p *mpc.Party, s *SharedRelation, perm []int, eq []bool, kind mergeKind) []uint64 {
	annot := make([]uint64, s.N)
	var run uint64
	for i, old := range perm {
		switch kind {
		case mergeSum:
			run = p.Ring.Add(run, s.Annot[old])
		case mergeOr:
			if s.Annot[old] != 0 {
				run = 1
			}
		}
		if i == len(perm)-1 || !eq[i+1] {
			annot[i], run = run, 0
		}
	}
	return annot
}

// merge runs π^⊕ (mergeSum) or π¹ (mergeOr) of s over groupBy on the
// step mergeStep declares for s.
func merge(p *mpc.Party, dg *relation.DummyGen, s *SharedRelation, groupBy []relation.Attr, kind mergeKind) (*SharedRelation, error) {
	v, ex := mergeStep(s.state(), kind, p.Ring.Bits)
	return runOp(p, "merge", v, ex, func(c *cursor) (*SharedRelation, error) { return runMerge(c, dg, s, groupBy, kind) })
}

// Aggregate computes the oblivious projection-aggregation π^⊕_groupBy(s)
// (paper §6.1). The output has the same public size as the input; dummy
// positions carry shares of zero. It is kept for the root package's
// BenchmarkSecureAggregate.
func Aggregate(p *mpc.Party, dg *relation.DummyGen, s *SharedRelation, groupBy []relation.Attr) (*SharedRelation, error) {
	return merge(p, dg, s, groupBy, mergeSum)
}
