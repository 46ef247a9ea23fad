package core

import (
	"fmt"

	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/oep"
	"secyan/internal/relation"
)

// This file implements the oblivious projection-aggregation operators of
// paper §6.1: π^⊕ (Aggregate) and π¹ (ProjectOne). The holder sorts its
// relation by the group-by attributes and a bijective OEP re-aligns the
// shared annotations with the sorted order. The output relation keeps
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

// runMerge executes the sort + OEP pipeline shared by Aggregate and
// ProjectOne, returning the new SharedRelation. The holder never
// materializes its sorted relation: SortPermByColumns derives the
// permutation, and the group-boundary scan and the output relation walk
// it directly. The OEP programs, circuit bits and output relation are
// O(n): they are the protocol's public-size wire contract.
func runMerge(p *mpc.Party, dg *relation.DummyGen, s *SharedRelation, groupBy []relation.Attr, kind mergeKind) (*SharedRelation, error) {
	outSchema, err := relation.NewSchema(groupBy...)
	if err != nil {
		return nil, err
	}
	n := s.N
	if n == 0 {
		return &SharedRelation{Holder: s.Holder, Schema: outSchema, N: 0, Plain: s.Plain,
			Rel: holderRel(p, s, relation.New(outSchema))}, nil
	}
	if s.Plain {
		// §6.5: the holder knows the annotations, so the whole
		// aggregation is local — no OEP, no circuit, no communication.
		return localMerge(p, dg, s, groupBy, kind, outSchema)
	}
	out := &SharedRelation{Holder: s.Holder, Schema: outSchema, N: n}
	if !s.IsHolder(p) {
		sorted, err := oep.RunPermuteHelper(p, n, s.Annot)
		if err != nil {
			return nil, fmt.Errorf("core: aggregate OEP: %w", err)
		}
		if kind == mergeSum {
			out.Annot, err = groupSums(p, sorted, nil)
		} else {
			out.Annot, err = projectOneGarbler(p, sorted, s.Holder)
		}
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	cols, err := s.Schema.Positions(groupBy)
	if err != nil {
		return nil, err
	}
	perm := relation.SortPermByColumns(s.Rel, cols)
	sorted, err := oep.RunPermuteProgrammer(p, perm, s.Annot)
	if err != nil {
		return nil, fmt.Errorf("core: aggregate OEP: %w", err)
	}
	eq := groupBoundaries(s, perm, cols)
	if kind == mergeSum {
		out.Annot, err = groupSums(p, sorted, groupShift(eq))
	} else {
		out.Annot, err = projectOneHolder(p, sorted, eq, s.Holder)
	}
	if err != nil {
		return nil, err
	}
	out.Rel = mergeOutputRel(s, perm, cols, outSchema, dg)
	return out, nil
}

// groupBoundaries walks the holder's sorted view once, carrying one row:
// eq[i] reports whether sorted rows i−1 and i fall in the same group
// (eq[0] is false).
func groupBoundaries(s *SharedRelation, perm, cols []int) []bool {
	eq := make([]bool, 0, s.N)
	var prev []uint64
	for _, old := range perm {
		row := s.Rel.Tuples[old]
		eq = append(eq, prev != nil && rowsMatch(prev, row, cols))
		prev = row
	}
	return eq
}

// groupShift is the holder's program for π^⊕'s second OEP: output i reads
// input groupShift(eq)[i]. Every position reads itself except the group
// ends e₁ < … < e_k (e_k = n−1 always): e_g reads e_{g−1}, and e₁ reads
// slot n−1. The ends map onto the ends, so the program is a permutation.
func groupShift(eq []bool) []int {
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
// runs the second OEP over the result, programmed with sigma by the
// holder (sigma == nil on the other side). out_i = P_i − P_{σ(i)} is then
// the group's sum at every group end and zero elsewhere, and fresh
// everywhere because the OEP re-randomizes every output.
func groupSums(p *mpc.Party, y []uint64, sigma []int) ([]uint64, error) {
	n := len(y)
	sums := make([]uint64, n)
	var acc uint64
	for i, v := range y {
		acc += v
		sums[i] = acc
	}
	in := append(sums[:n-1:n-1], 0)
	var prev []uint64
	var err error
	if sigma != nil {
		prev, err = oep.RunPermuteProgrammer(p, sigma, in)
	} else {
		prev, err = oep.RunPermuteHelper(p, n, in)
	}
	if err != nil {
		return nil, fmt.Errorf("core: aggregate OEP: %w", err)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = p.Ring.Mask(sums[i] - prev[i])
	}
	return out, nil
}

// projectOneHolder runs π¹'s merge chain as its evaluator over the sorted
// shares and group-boundary bits, returning its output shares.
func projectOneHolder(p *mpc.Party, sorted []uint64, eq []bool, holder mpc.Role) ([]uint64, error) {
	n, ell := len(sorted), p.Ring.Bits
	evalBits := make([]bool, 0, n*(ell+1))
	for i, v := range sorted {
		evalBits = gc.AppendBits(evalBits, v, ell)
		if i > 0 {
			evalBits = append(evalBits, eq[i])
		}
	}
	out, err := p.RunCircuit(buildProjectOneCircuit(n, ell), evalBits, nil, holder.Other())
	if err != nil {
		return nil, err
	}
	annot := make([]uint64, n)
	for j := range annot {
		annot[j] = p.Ring.Mask(gc.UintOfBits(out[j*ell : (j+1)*ell]))
	}
	return annot, nil
}

// projectOneGarbler runs π¹'s merge chain as its garbler: its negated
// sorted shares, then the negated output masks, enter as private bits
// (the order buildProjectOneCircuit allocates them); the masks are its
// output shares.
func projectOneGarbler(p *mpc.Party, sorted []uint64, holder mpc.Role) ([]uint64, error) {
	n, ell := len(sorted), p.Ring.Bits
	priv := make([]bool, 0, 2*n*ell)
	for _, v := range sorted {
		priv = gc.AppendBits(priv, p.Ring.Neg(v), ell)
	}
	annot := make([]uint64, n)
	for i := range annot {
		annot[i] = p.Ring.Random(p.PRG)
		priv = gc.AppendBits(priv, p.Ring.Neg(annot[i]), ell)
	}
	if _, err := p.RunCircuit(buildProjectOneCircuit(n, ell), nil, priv, holder.Other()); err != nil {
		return nil, err
	}
	return annot, nil
}

// mergeOutputRel rebuilds the holder-side output relation of an
// oblivious merge in one pass over the sorted view: the last row of each
// group keeps its group values; every other row becomes a fresh dummy.
// "Last" looks one row ahead, so each row is emitted when its successor
// arrives.
func mergeOutputRel(s *SharedRelation, perm, cols []int, outSchema relation.Schema, dg *relation.DummyGen) *relation.Relation {
	res := relation.New(outSchema)
	emit := func(held []uint64, last bool) {
		row := make([]uint64, len(cols))
		if last {
			for c, cc := range cols {
				row[c] = held[cc]
			}
		} else {
			for c := range row {
				row[c] = dg.Next()
			}
		}
		res.Append(row, 0)
	}
	var held []uint64
	for _, old := range perm {
		row := s.Rel.Tuples[old]
		if held != nil {
			emit(held, !rowsMatch(held, row, cols))
		}
		held = row
	}
	emit(held, true)
	return res
}

// localMerge is the plaintext-annotation fast path of the aggregation
// operators (§6.5): the holder sorts, aggregates and pads locally,
// reproducing the exact output structure of the oblivious protocol (last
// tuple of each sorted group carries the aggregate, all other positions
// are fresh dummies), so downstream operators cannot tell the difference.
// Like runMerge, it walks the sort permutation instead of a sorted clone,
// carrying the running aggregate and one held row.
func localMerge(p *mpc.Party, dg *relation.DummyGen, s *SharedRelation, groupBy []relation.Attr, kind mergeKind, outSchema relation.Schema) (*SharedRelation, error) {
	n := s.N
	if !s.IsHolder(p) {
		return &SharedRelation{Holder: s.Holder, Schema: outSchema, N: n,
			Annot: make([]uint64, n), Plain: true}, nil
	}
	cols, err := s.Schema.Positions(groupBy)
	if err != nil {
		return nil, err
	}
	perm := relation.SortPermByColumns(s.Rel, cols)

	res := relation.New(outSchema)
	annot := make([]uint64, n)
	var run uint64
	var held []uint64
	heldIdx := -1
	emit := func(last bool) {
		row := make([]uint64, len(cols))
		if last {
			for c, cc := range cols {
				row[c] = held[cc]
			}
			annot[heldIdx] = run
			run = 0
		} else {
			for c := range row {
				row[c] = dg.Next()
			}
		}
		res.Append(row, 0)
	}
	for i, old := range perm {
		row := s.Rel.Tuples[old]
		if held != nil {
			emit(!rowsMatch(held, row, cols))
		}
		switch kind {
		case mergeSum:
			run = p.Ring.Add(run, s.Annot[old])
		case mergeOr:
			if s.Annot[old] != 0 {
				run = 1
			}
		}
		held = row
		heldIdx = i
	}
	emit(true)
	return &SharedRelation{Holder: s.Holder, Schema: outSchema, N: n, Rel: res,
		Annot: annot, Plain: true}, nil
}

// rowsMatch compares two rows on the given columns.
func rowsMatch(a, b []uint64, cols []int) bool {
	for _, c := range cols {
		if a[c] != b[c] {
			return false
		}
	}
	return true
}

// holderRel returns rel on the holder side and nil elsewhere.
func holderRel(p *mpc.Party, s *SharedRelation, rel *relation.Relation) *relation.Relation {
	if s.IsHolder(p) {
		return rel
	}
	return nil
}

// Aggregate computes the oblivious projection-aggregation π^⊕_groupBy(s)
// (paper §6.1). The output has the same public size as the input; dummy
// positions carry shares of zero. The executor calls runMerge itself;
// this entry point is kept for the root package's
// BenchmarkSecureAggregate.
func Aggregate(p *mpc.Party, dg *relation.DummyGen, s *SharedRelation, groupBy []relation.Attr) (*SharedRelation, error) {
	return runMerge(p, dg, s, groupBy, mergeSum)
}

// ProjectOne computes the oblivious π¹_attrs(s) (paper §6.1): the output
// relation is semantically equivalent to the distinct attrs-values of the
// nonzero-annotated tuples, each annotated with a share of 1.
func ProjectOne(p *mpc.Party, dg *relation.DummyGen, s *SharedRelation, attrs []relation.Attr) (*SharedRelation, error) {
	return runMerge(p, dg, s, attrs, mergeOr)
}
