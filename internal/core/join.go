package core

import (
	"math/bits"

	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/transport"
)

// This file implements the oblivious join of paper §6.3, the final
// operator of the secure Yannakakis protocol. Preconditions (established
// by the reduce and semijoin phases): all remaining relations carry only
// output attributes and every dangling tuple is zero-annotated. The
// protocol then:
//
//  1. reveals to Alice, per relation, each tuple or a dummy marker
//     depending on a zero test of its shared annotation — legitimate
//     because R*_F = π_F(J*) is derivable from the query results;
//  2. lets Alice join the revealed relations locally with the plaintext
//     Yannakakis engine, tracking provenance, and sends |J*| to Bob;
//  3. re-aligns each relation's annotation shares to the join rows with
//     an OEP programmed by Alice, and multiplies the factors per row,
//     pairwise in ⌈log₂k⌉ product batches for k relations.
//
// The executor (exec.go) runs these as separate plan steps.

// dummyMarker is the revealed value of a suppressed column: all ones,
// which no real value (< 2^61) or padding dummy (< 2^62) can equal.
const dummyMarker = ^uint64(0)

// attrBits is the width of revealed attribute values.
const attrBits = 64

// revealGadget is the §6.3 step-1 gadget of one tuple with `cols`
// columns. The evaluator (Alice) inputs her annotation share and the
// garbler (Bob) the negation of his as private bits; Alice learns nz,
// whether the annotation is nonzero — whether her share differs from
// minus his, ℓ−1 ANDs. If withRows is true Bob's column values follow as
// private bits, revealed as a payload keyed to nz: Alice reads the row
// exactly when its annotation is nonzero, for cols × 8 bytes and no
// gate. Otherwise Alice already holds the rows and learns nz alone.
//
// With a scale > 0 the annotation is a denominator (paper §7): Bob also
// inputs his share of it, both parties input their shares of a
// numerator, and Alice learns nz ? ⌊num·scale/den⌋ : 0 (restoring
// division) after nz and the row, the quotient's low ℓ bits. num·scale
// is formed in a word ⌈log₂ scale⌉ bits wider than the ring, so it does
// not wrap; at scale 1 the word is the ring's.
func revealGadget(b *gc.Builder, cols, ell int, withRows bool, scale uint64) {
	share := b.EvalInputWord(ell)
	nz := b.Not(b.EqPrivate(share, b.PrivateWord(ell)))
	if withRows {
		b.OutputPayloadIf(nz, b.PrivateWord(cols*attrBits))
	} else {
		b.OutputToEval(nz)
	}
	if scale > 0 {
		den := b.AddPrivate(share, b.PrivateWord(ell))
		num := b.AddPrivate(b.EvalInputWord(ell), b.PrivateWord(ell))
		wide := ell + bits.Len64(scale-1)
		q, _ := b.DivMod(b.MulConst(b.ZeroExtend(num, wide), scale), den)
		b.OutputWordToEval(b.ANDWordBit(q[:ell], nz))
	}
}

// buildRevealCircuit repeats revealGadget once per tuple.
func buildRevealCircuit(n, cols, ell int, withRows bool, scale uint64) *gc.Circuit {
	b := gc.NewBuilder()
	revealGadget(b, cols, ell, withRows, scale)
	return b.BuildSlots(n)
}

// revealRows reveals the nonzero-annotated tuples of s to Alice as the
// step's variant says. Alice gets s.N rows whose annotation field is 1
// for revealed (real, nonzero) tuples and 0 otherwise; Bob gets nil.
func revealRows(c *cursor, s *SharedRelation) (*relation.Relation, error) {
	switch c.st.variant {
	case varLocal:
		// No rows, or Alice holds the plain ones: she filters locally.
		if c.p.Role != mpc.Alice {
			return nil, nil
		}
		res := relation.New(s.Schema)
		for i, v := range s.Annot {
			flag := uint64(1)
			if v == 0 || s.Rel.IsDummy(i) {
				flag = 0
			}
			res.Append(append([]uint64(nil), s.Rel.Tuples[i]...), flag)
		}
		return res, nil
	case varPlain:
		return revealPlainRows(c, s)
	}
	rows, _, err := revealCircuit(c, s, nil, 0)
	return rows, err
}

// revealCircuit runs the reveal circuit over s's rows, or with num
// (this party's numerator shares) and a scale > 0 its ratio variant.
// Alice receives the rows as revealRows returns them and the quotients;
// Bob receives nils.
func revealCircuit(c *cursor, s *SharedRelation, num []uint64, scale uint64) (*relation.Relation, []uint64, error) {
	p, n := c.p, s.N
	cols := len(s.Schema.Attrs)
	ell := p.Ring.Bits
	withRows, ratio := s.Holder == mpc.Bob, scale > 0
	rowBits, ratioBits := 0, 0
	if withRows {
		rowBits = cols * attrBits
	}
	if ratio {
		ratioBits = ell
	}

	if p.Role == mpc.Bob {
		// Garbler: per tuple his negated share, the row when he holds
		// it, then — for a ratio — his shares of den and num.
		priv := make([]bool, 0, n*(ell+rowBits+2*ratioBits))
		for i := 0; i < n; i++ {
			priv = gc.AppendBits(priv, p.Ring.Neg(s.Annot[i]), ell)
			if withRows {
				for _, v := range s.Rel.Tuples[i] {
					priv = gc.AppendBits(priv, v, attrBits)
				}
			}
			if ratio {
				priv = gc.AppendBits(priv, s.Annot[i], ell)
				priv = gc.AppendBits(priv, num[i], ell)
			}
		}
		_, err := c.circuit(mpc.Bob, nil, priv)
		return nil, nil, err
	}

	evalBits := make([]bool, 0, n*(ell+ratioBits))
	for i := 0; i < n; i++ {
		evalBits = gc.AppendBits(evalBits, s.Annot[i], ell)
		if ratio {
			evalBits = gc.AppendBits(evalBits, num[i], ell)
		}
	}
	out, err := c.circuit(mpc.Bob, evalBits, nil)
	if err != nil {
		return nil, nil, err
	}
	// Per tuple Alice receives nz, then — when Bob holds the rows — the
	// row's columns, zeros unless nz, then the quotient of a ratio.
	stride := len(out) / n
	res := relation.New(s.Schema)
	var quot []uint64
	if ratio {
		quot = make([]uint64, n)
	}
	for i := 0; i < n; i++ {
		o := out[i*stride : (i+1)*stride]
		var row []uint64
		dummy := false
		if withRows {
			row = make([]uint64, cols)
			for j := range row {
				row[j] = gc.UintOfBits(o[1+j*attrBits : 1+(j+1)*attrBits])
				dummy = dummy || relation.IsDummyValue(row[j])
			}
		} else {
			row = append(row, s.Rel.Tuples[i]...)
			dummy = s.Rel.IsDummy(i)
		}
		flag := uint64(0)
		if o[0] && !dummy {
			flag = 1
		}
		res.Append(row, flag)
		if ratio {
			quot[i] = gc.UintOfBits(o[stride-ell:])
		}
	}
	return res, quot, nil
}

// revealPlainRows reveals plain rows Bob holds (§6.5) in one message of
// public size: each real nonzero row, or dummy markers — exactly R*,
// which the model permits.
func revealPlainRows(c *cursor, s *SharedRelation) (*relation.Relation, error) {
	cols := len(s.Schema.Attrs)
	if _, err := c.take(plainBytes(8 * s.N * cols)); err != nil {
		return nil, err
	}
	if c.p.Role == mpc.Bob {
		msg := make([]uint64, 0, s.N*cols)
		for i, row := range s.Rel.Tuples {
			hide := s.Annot[i] == 0 || s.Rel.IsDummy(i)
			for _, v := range row {
				if hide {
					v = dummyMarker
				}
				msg = append(msg, v)
			}
		}
		return nil, transport.SendUint64s(c.p.Conn, msg)
	}
	vals, err := transport.RecvUint64s(c.p.Conn, "core: plain reveal rows", s.N*cols)
	if err != nil {
		return nil, err
	}
	res := relation.New(s.Schema)
	for i := 0; i < s.N; i++ {
		row := append([]uint64(nil), vals[i*cols:(i+1)*cols]...)
		flag := uint64(1)
		for _, v := range row {
			if v == dummyMarker || relation.IsDummyValue(v) {
				flag = 0
			}
		}
		res.Append(row, flag)
	}
	return res, nil
}

// JoinResult is one party's view of the oblivious join output: Alice has
// the join rows (already filtered to real tuples) and both parties hold
// shares of each row's annotation.
type JoinResult struct {
	N      int
	Schema relation.Schema
	Rows   *relation.Relation // Alice only
	Annot  []uint64
}

// unionSchema concatenates the node schemas, deduplicating attributes in
// first-appearance order.
func unionSchema(srs []*SharedRelation, order []int) relation.Schema {
	var attrs []relation.Attr
	seen := map[relation.Attr]bool{}
	for _, node := range order {
		for _, a := range srs[node].Schema.Attrs {
			if !seen[a] {
				seen[a] = true
				attrs = append(attrs, a)
			}
		}
	}
	return relation.MustSchema(attrs...)
}

// RevealRelation reveals a shared relation's real content to Alice: its
// rows, then its annotations. It ends a query whose reduce phase leaves
// a single node (e.g. TPC-H Q3, §8.1), which *is* the query result.
// Alice receives the filtered relation; Bob receives nil.
func RevealRelation(p *mpc.Party, s *SharedRelation) (*relation.Relation, error) {
	v, ex := revealStep(s.state(), p.Ring.Bits, 0)
	return runOp(p, "reveal-relation", v, append(ex, plainBytes(8*s.N)),
		func(c *cursor) (*relation.Relation, error) { return revealRelation(c, s) })
}

// revealRelation runs RevealRelation on c's step.
func revealRelation(c *cursor, s *SharedRelation) (*relation.Relation, error) {
	revealed, err := revealRows(c, s)
	if err != nil {
		return nil, err
	}
	if _, err := c.take(plainBytes(8 * s.N)); err != nil {
		return nil, err
	}
	vals, err := RevealAnnotations(c.p, s, mpc.Alice)
	if err != nil || c.p.Role != mpc.Alice {
		return nil, err
	}
	out := relation.New(s.Schema)
	for i := range revealed.Tuples {
		if revealed.Annot[i] == 1 && vals[i] != 0 {
			out.Append(revealed.Tuples[i], vals[i])
		}
	}
	return out, nil
}
