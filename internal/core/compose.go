package core

import (
	"fmt"

	"secyan/internal/mpc"
	"secyan/internal/relation"
)

// This file implements the query-composition extension of paper §7:
// aggregation functions that no single semiring expresses (avg, ratios,
// differences of sums) are computed by running the secure Yannakakis
// protocol once per constituent sum — obtaining the results in shared
// form — and then combining the shares, either locally (differences) or
// with one final small garbled circuit (ratios), revealing only the
// composed value to Alice.

// SharedResult is the un-revealed output of a secure Yannakakis run:
// either the single surviving relation of the reduce phase (rows at its
// holder, annotations shared) or the oblivious-join output (rows at
// Alice, annotations shared).
type SharedResult struct {
	Single *SharedRelation
	Join   *JoinResult
}

// N returns the public row count.
func (r *SharedResult) N() int {
	if r.Single != nil {
		return r.Single.N
	}
	return r.Join.N
}

// Annot returns this party's annotation shares.
func (r *SharedResult) Annot() []uint64 {
	if r.Single != nil {
		return r.Single.Annot
	}
	return r.Join.Annot
}

// asShared normalizes to a SharedRelation view (Join results are held by
// Alice).
func (r *SharedResult) asShared() *SharedRelation {
	if r.Single != nil {
		return r.Single
	}
	return &SharedRelation{Holder: mpc.Alice, Schema: r.Join.Schema, N: r.Join.N,
		Rel: r.Join.Rows, Annot: r.Join.Annot}
}

// Subtract locally combines two aligned shared results into shares of
// (a - b), the composition used by TPC-H Q9 (§8.1). Both runs must stem
// from the same query structure over the same tuples, which makes their
// rows and dummy positions line up exactly.
func (r *SharedResult) Subtract(ring interface{ Sub(a, b uint64) uint64 }, other *SharedResult) (*SharedResult, error) {
	if r.N() != other.N() {
		return nil, fmt.Errorf("core: subtracting results of different sizes %d and %d", r.N(), other.N())
	}
	a := r.asShared()
	b := other.asShared()
	if a.Holder != b.Holder {
		return nil, fmt.Errorf("core: subtracting results with different holders")
	}
	out := &SharedRelation{Holder: a.Holder, Schema: a.Schema, N: a.N, Rel: a.Rel,
		Annot: make([]uint64, a.N)}
	for i := range out.Annot {
		out.Annot[i] = ring.Sub(a.Annot[i], b.Annot[i])
	}
	return &SharedResult{Single: out}, nil
}

// RevealRatio composes two aligned shared results as the per-row ratio
// ⌊num·scale/den⌋ and reveals rows and ratios to Alice for the rows with
// a nonzero denominator (TPC-H Q8's mkt_share, §8.1). Bob receives nil.
// The circuit is the reveal circuit over den with its ratio output (see
// revealGadget), which scales num itself, wide enough not to wrap.
func RevealRatio(p *mpc.Party, num, den *SharedResult, scale uint64) (*relation.Relation, error) {
	if scale == 0 {
		return nil, fmt.Errorf("core: ratio scale 0")
	}
	if num.N() != den.N() {
		return nil, fmt.Errorf("core: ratio of results with different sizes")
	}
	a := num.asShared()
	d := den.asShared()
	if a.Holder != d.Holder {
		return nil, fmt.Errorf("core: ratio of results with different holders")
	}
	// A shared relation's reveal: the circuit, or nothing without rows.
	v, ex := revealStep(nodeState{schema: d.Schema, n: d.N, holder: d.Holder}, p.Ring.Bits, scale)
	var quot []uint64
	rows, err := runOp(p, "reveal-ratio", v, ex, func(c *cursor) (rows *relation.Relation, err error) {
		if v == varLocal {
			return relation.New(d.Schema), nil
		}
		rows, quot, err = revealCircuit(c, d, a.Annot, scale)
		return rows, err
	})
	if err != nil || p.Role != mpc.Alice {
		return nil, err
	}
	res := relation.New(d.Schema)
	for i, row := range rows.Tuples {
		if rows.Annot[i] == 1 {
			res.Append(row, quot[i])
		}
	}
	return res, nil
}

// Reveal reconstructs the result at Alice: rows plus annotation values,
// with dummy and zero-annotated rows removed and columns ordered as
// `output`.
func (r *SharedResult) Reveal(p *mpc.Party, output []relation.Attr) (*relation.Relation, error) {
	reveal := r.Join.reveal
	if r.Single != nil {
		reveal = func(p *mpc.Party) (*relation.Relation, error) { return RevealRelation(p, r.Single) }
	}
	res, err := reveal(p)
	if err != nil || p.Role != mpc.Alice {
		return nil, err
	}
	return reorder(res.DropZeroAnnotated(), output)
}

// reveal reveals the join annotations to Alice and returns the result
// rows with a nonzero annotation, in join order; Bob receives nil.
func (jr *JoinResult) reveal(p *mpc.Party) (*relation.Relation, error) {
	if p.Role != mpc.Alice {
		return nil, p.RevealToPeer(jr.Annot)
	}
	vals, err := p.RecvReveal(jr.Annot)
	if err != nil {
		return nil, err
	}
	res := relation.New(jr.Schema)
	for i := range jr.Rows.Tuples {
		if vals[i] != 0 {
			res.Append(jr.Rows.Tuples[i], vals[i])
		}
	}
	return res, nil
}
