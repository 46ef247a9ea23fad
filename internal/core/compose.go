package core

import (
	"fmt"

	"secyan/internal/gc"
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

// buildRatioCircuit computes, per row, q = (a·scale)/b over shared a and
// b, revealing to the evaluator (Alice) the masked quotient nz(b) ? q : 0
// in the clear and the nz bit, plus — when Bob holds the rows — the row
// values as a payload keyed to nz (see revealGadget). Division follows
// the restoring-division circuit; scale is a public constant.
func buildRatioCircuit(n, cols, ell int, scale uint64, withRows bool) *gc.Circuit {
	b := gc.NewBuilder()
	scaleW := b.ConstWord(scale, ell)
	for i := 0; i < n; i++ {
		ae := b.EvalInputWord(ell)
		ag := b.PrivateWord(ell)
		be := b.EvalInputWord(ell)
		bg := b.PrivateWord(ell)
		a := b.AddPrivate(ae, ag)
		den := b.AddPrivate(be, bg)
		nz := b.NonZero(den)
		q, _ := b.DivMod(b.Mul(a, scaleW), den)
		b.OutputWordToEval(b.ANDWordBit(q, nz))
		if withRows {
			b.OutputPayloadIf(nz, b.PrivateWord(cols*attrBits))
		} else {
			b.OutputToEval(nz)
		}
	}
	return b.Build()
}

// RevealRatio composes two aligned shared results as the per-row ratio
// (num·scale)/den and reveals rows and ratios to Alice for the rows with
// a nonzero denominator (TPC-H Q8's mkt_share, §8.1). Bob receives nil.
func RevealRatio(p *mpc.Party, num, den *SharedResult, scale uint64) (*relation.Relation, error) {
	if num.N() != den.N() {
		return nil, fmt.Errorf("core: ratio of results with different sizes")
	}
	a := num.asShared()
	d := den.asShared()
	if a.Holder != d.Holder {
		return nil, fmt.Errorf("core: ratio of results with different holders")
	}
	n := a.N
	ell := p.Ring.Bits
	cols := len(a.Schema.Attrs)
	withRows := a.Holder == mpc.Bob
	circ := buildRatioCircuit(n, cols, ell, scale, withRows)
	if n == 0 {
		if p.Role == mpc.Alice {
			return relation.New(a.Schema), nil
		}
		return nil, nil
	}

	if p.Role == mpc.Alice {
		evalBits := make([]bool, 0, 2*n*ell)
		for i := 0; i < n; i++ {
			evalBits = gc.AppendBits(evalBits, a.Annot[i], ell)
			evalBits = gc.AppendBits(evalBits, d.Annot[i], ell)
		}
		out, err := p.RunCircuit(circ, evalBits, nil, mpc.Bob)
		if err != nil {
			return nil, err
		}
		res := relation.New(a.Schema)
		per := ell + 1
		if withRows {
			per += cols * attrBits
		}
		for i := 0; i < n; i++ {
			off := i * per
			q := gc.UintOfBits(out[off : off+ell])
			row := make([]uint64, cols)
			keep := out[off+ell]
			if withRows {
				for c := 0; c < cols; c++ {
					row[c] = gc.UintOfBits(out[off+ell+1+c*attrBits : off+ell+1+(c+1)*attrBits])
					if relation.IsDummyValue(row[c]) {
						keep = false
					}
				}
			} else {
				copy(row, a.Rel.Tuples[i])
				if a.Rel.IsDummy(i) {
					keep = false
				}
			}
			if keep {
				res.Append(row, q)
			}
		}
		return res, nil
	}

	// Bob: garbler with private shares (and rows when he holds them).
	priv := make([]bool, 0, n*(2*ell+cols*attrBits))
	for i := 0; i < n; i++ {
		priv = gc.AppendBits(priv, a.Annot[i], ell)
		priv = gc.AppendBits(priv, d.Annot[i], ell)
		if withRows {
			for c := 0; c < cols; c++ {
				priv = gc.AppendBits(priv, a.Rel.Tuples[i][c], attrBits)
			}
		}
	}
	if _, err := p.RunCircuit(circ, nil, priv, mpc.Bob); err != nil {
		return nil, err
	}
	return nil, nil
}

// Reveal reconstructs the result at Alice: rows plus annotation values,
// with dummy and zero-annotated rows removed and columns ordered as
// `output`.
func (r *SharedResult) Reveal(p *mpc.Party, output []relation.Attr) (*relation.Relation, error) {
	if r.Single != nil {
		res, err := RevealRelation(p, r.Single)
		if err != nil || p.Role != mpc.Alice {
			return nil, err
		}
		return normalizeResult(res, output)
	}
	jr := r.Join
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
	return normalizeResult(res, output)
}
