package core

import (
	"fmt"

	"secyan/internal/mpc"
	"secyan/internal/psi"
	"secyan/internal/relation"
)

// This file implements the oblivious semijoin operators of paper §6.2.
//
// SemijoinInto computes R = R_F ⋈^⊗ R_{F'} under the reduce-phase
// constraint F' ⊆ F: the output has exactly the parent's tuples, and the
// annotation of parent tuple t becomes ⟦v(t) ⊗ z⟧ where z is the
// annotation of the unique child tuple joining with t (or 0). The
// variant semijoinStep decides aligns the child's annotations to the
// parent's tuples, and one product batch multiplies:
//
//   - cross-party (paper §6.2 main protocol): a PSI — with the child's
//     annotations as payloads when its holder knows them (§6.5), with
//     secret-shared payloads otherwise (§5.5) — fills the parent
//     holder's cuckoo bins, and an OEP maps bins to parent tuples;
//   - same-party (§6.2 last paragraph): one OEP replaces the PSI;
//   - an attribute-less child: one OEP broadcasts its annotation; an
//     empty child: the aligned annotations are zero.
//
// The general R_F ⋉^⊗ R_{F'} is R_F ⋈^⊗ π¹_{F∩F'}(R_{F'}) (§6.2): a
// project-one step, then a semijoin-into step.

// childKeys extracts the child relation's single-uint64 keys over all its
// attributes and verifies they are distinct (guaranteed when the child
// went through an oblivious aggregation, which the reduce phase ensures).
func childKeys(rel *relation.Relation) ([]uint64, error) {
	cols := make([]int, len(rel.Schema.Attrs))
	for i := range cols {
		cols[i] = i
	}
	keys := make([]uint64, rel.Len())
	seen := make(map[uint64]bool, rel.Len())
	for i := range keys {
		k := rel.Key(i, cols)
		if seen[k] {
			return nil, fmt.Errorf("core: child relation has duplicate join key %d; aggregate it first", k)
		}
		seen[k] = true
		keys[i] = k
	}
	return keys, nil
}

// SemijoinInto computes parent ⋈^⊗ child with child.Schema ⊆
// parent.Schema (paper §6.2). The result keeps the parent's tuples and
// holder; only the annotation shares change. It is kept for the root
// package's benchmarks.
func SemijoinInto(p *mpc.Party, dg *relation.DummyGen, parent, child *SharedRelation) (*SharedRelation, error) {
	for _, a := range child.Schema.Attrs {
		if !parent.Schema.Has(a) {
			return nil, fmt.Errorf("core: SemijoinInto requires child attrs ⊆ parent attrs (missing %q)", a)
		}
	}
	v, ex := semijoinStep(parent.state(), child.state(), p.Ring.Bits)
	return runOp(p, "semijoin-into", v, ex, func(c *cursor) (*SharedRelation, error) {
		return semijoinInto(c, dg, parent, child)
	})
}

// semijoinInto runs the semijoin on c's step.
func semijoinInto(c *cursor, dg *relation.DummyGen, parent, child *SharedRelation) (*SharedRelation, error) {
	var zShares []uint64
	var err error
	switch c.st.variant {
	case varZero:
		// An empty child annihilates every parent annotation: multiply by
		// a (trivial) sharing of zero, refreshed by the multiplication.
		zShares = make([]uint64, parent.N)
	case varScalar:
		zShares, err = alignScalar(c, parent, child)
	case varSameParty:
		zShares, err = alignSameParty(c, parent, child)
	default:
		zShares, err = alignCrossParty(c, dg, parent, child)
	}
	if err != nil {
		return nil, err
	}
	newAnnot, err := c.products(parent.Annot, zShares, parent.Holder)
	if err != nil {
		return nil, err
	}
	return &SharedRelation{Holder: parent.Holder, Schema: parent.Schema, N: parent.N,
		Rel: parent.Rel, Annot: newAnnot}, nil
}

// alignScalar broadcasts the last child annotation (the grand aggregate
// of an attribute-less child) to every parent position: by construction
// of the oblivious aggregation, the single real tuple sits at the last
// position — public knowledge — so a constant-programmed OEP aligns it.
func alignScalar(c *cursor, parent, child *SharedRelation) ([]uint64, error) {
	var xi []int
	if c.p.Role == parent.Holder {
		xi = make([]int, parent.N)
		for j := range xi {
			xi[j] = child.N - 1
		}
	}
	return c.oep(xi, child.N, parent.N, child.Annot, false)
}

// alignSameParty aligns child annotation shares to parent tuples when one
// party holds both relations: the holder pairs each parent tuple with its
// unique matching child tuple (or a virtual dummy at index N_child) and a
// single extended OEP re-shares the child annotations in parent order.
func alignSameParty(c *cursor, parent, child *SharedRelation) ([]uint64, error) {
	ext := make([]uint64, child.N+1)
	copy(ext, child.Annot) // the extra slot is a shared zero (0,0)
	var xi []int
	if c.p.Role == parent.Holder {
		keys, err := childKeys(child.Rel)
		if err != nil {
			return nil, err
		}
		idx := make(map[uint64]int, len(keys))
		for i, k := range keys {
			idx[k] = i
		}
		cols, err := parent.Schema.Positions(child.Schema.Attrs)
		if err != nil {
			return nil, err
		}
		xi = make([]int, parent.N)
		for j := range xi {
			if i, ok := idx[parent.Rel.Key(j, cols)]; ok {
				xi[j] = i
			} else {
				xi[j] = child.N // dummy slot
			}
		}
	}
	return c.oep(xi, child.N+1, parent.N, ext, false)
}

// alignCrossParty aligns child annotation shares to parent tuples across
// parties: the step's PSI delivers per-bin shares of the matching child
// annotation, and an OEP programmed by the parent holder maps bins to
// parent tuples.
func alignCrossParty(c *cursor, dg *relation.DummyGen, parent, child *SharedRelation) ([]uint64, error) {
	p, m, indexed := c.p, parent.N, c.st.variant == varIndexedPSI
	if err := c.psi(child.Holder, m, child.N, indexed); err != nil {
		return nil, err
	}
	if p.Role != parent.Holder {
		// Child holder: PSI sender, then OEP helper.
		keys, err := childKeys(child.Rel)
		if err != nil {
			return nil, err
		}
		send := psi.RunSender
		if indexed {
			send = psi.RunSharedPayloadSender
		}
		res, err := send(p, keys, child.Annot, m)
		if err != nil {
			return nil, err
		}
		return c.oep(nil, res.Params.B, m, res.PayShares, false)
	}
	// Parent holder: X is the parent's distinct child-attribute keys,
	// padded with dummies to the public size m.
	cols, err := parent.Schema.Positions(child.Schema.Attrs)
	if err != nil {
		return nil, err
	}
	xs, keyOf, seen := make([]uint64, 0, m), make([]uint64, m), make(map[uint64]bool, m)
	for j := range keyOf {
		if keyOf[j] = parent.Rel.Key(j, cols); !seen[keyOf[j]] {
			seen[keyOf[j]] = true
			xs = append(xs, keyOf[j])
		}
	}
	for len(xs) < m {
		xs = append(xs, dg.Next())
	}
	var res *psi.Result
	if indexed {
		res, err = psi.RunSharedPayloadReceiver(p, xs, child.N, child.Annot)
	} else {
		res, err = psi.RunReceiver(p, xs, child.N)
	}
	if err != nil {
		return nil, err
	}
	// Map every parent tuple to the cuckoo bin holding its key.
	binOf := make(map[uint64]int, len(res.Table.Items))
	for i := range res.Table.Items {
		binOf[res.Table.Items[i]] = res.Table.BinOfItem(i)
	}
	xi := make([]int, m)
	for j, k := range keyOf {
		b, ok := binOf[k]
		if !ok {
			return nil, fmt.Errorf("core: parent key missing from cuckoo table")
		}
		xi[j] = b
	}
	return c.oep(xi, res.Params.B, m, res.PayShares, false)
}
