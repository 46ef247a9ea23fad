package core

import (
	"fmt"

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
//     an OEP programmed by Alice, and multiplies the factors per row with
//     OT-based share multiplications (mulShares), pairwise in ⌈log₂k⌉
//     batches for k relations, yielding shared result annotations.
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
func revealGadget(b *gc.Builder, cols, ell int, withRows bool) {
	nz := b.Not(b.EqPrivate(b.EvalInputWord(ell), b.PrivateWord(ell)))
	if !withRows {
		b.OutputToEval(nz)
		return
	}
	b.OutputPayloadIf(nz, b.PrivateWord(cols*attrBits))
}

// buildRevealCircuit repeats revealGadget once per tuple.
func buildRevealCircuit(n, cols, ell int, withRows bool) *gc.Circuit {
	b := gc.NewBuilder()
	revealGadget(b, cols, ell, withRows)
	return b.BuildSlots(n)
}

// revealNonzeroRows reveals the nonzero-annotated tuples of s to Alice.
// On Alice's side it returns a relation with s.N rows whose annotation
// field is 1 for revealed (real, nonzero) tuples and 0 otherwise; Bob
// receives nil. Message sizes depend only on public parameters. Bit and
// row assembly stride in chunks; the single circuit (or single direct
// message) is the wire contract and stays whole.
func revealNonzeroRows(p *mpc.Party, s *SharedRelation, chunk int) (*relation.Relation, error) {
	n := s.N
	cols := len(s.Schema.Attrs)
	ell := p.Ring.Bits
	withRows := s.Holder == mpc.Bob
	if n == 0 {
		if p.Role == mpc.Alice {
			return relation.New(s.Schema), nil
		}
		return nil, nil
	}
	if s.Plain {
		// §6.5: the holder knows the zero pattern, so no circuit is
		// needed — Alice filters locally, or Bob sends rows-or-dummies
		// directly (revealing exactly R*, which the model permits).
		return revealPlainRows(p, s, chunk)
	}
	circ := buildRevealCircuit(n, cols, ell, withRows)

	if p.Role == mpc.Alice {
		evalBits := appendShareBits(nil, s.Annot, ell)
		out, err := p.RunCircuit(circ, evalBits, nil, mpc.Bob)
		if err != nil {
			return nil, err
		}
		// Per tuple Alice receives nz, then — when Bob holds the rows —
		// the row's columns, zeros unless nz.
		stride := 1
		if withRows {
			stride += cols * attrBits
		}
		res := relation.New(s.Schema)
		relation.Range(n, chunk, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				var row []uint64
				dummy := false
				if withRows {
					row = make([]uint64, cols)
					for c := range row {
						off := i*stride + 1 + c*attrBits
						row[c] = gc.UintOfBits(out[off : off+attrBits])
						dummy = dummy || relation.IsDummyValue(row[c])
					}
				} else {
					row = append(row, s.Rel.Tuples[i]...)
					dummy = s.Rel.IsDummy(i)
				}
				flag := uint64(0)
				if out[i*stride] && !dummy {
					flag = 1
				}
				res.Append(row, flag)
			}
			return nil
		})
		return res, nil
	}

	// Bob's side: garbler with his negated shares (and the rows when he
	// holds them) as private bits.
	priv := make([]bool, 0, n*(ell+cols*attrBits))
	relation.Range(n, chunk, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			priv = gc.AppendBits(priv, p.Ring.Neg(s.Annot[i]), ell)
			if withRows {
				for c := 0; c < cols; c++ {
					priv = gc.AppendBits(priv, s.Rel.Tuples[i][c], attrBits)
				}
			}
		}
		return nil
	})
	if _, err := p.RunCircuit(circ, nil, priv, mpc.Bob); err != nil {
		return nil, err
	}
	return nil, nil
}

// revealPlainRows is the plaintext-annotation fast path of the reveal
// step: no garbled circuit, at most one direct message.
func revealPlainRows(p *mpc.Party, s *SharedRelation, chunk int) (*relation.Relation, error) {
	cols := len(s.Schema.Attrs)
	if s.Holder == mpc.Alice {
		if p.Role != mpc.Alice {
			return nil, nil // nothing to do: Alice filters locally
		}
		res := relation.New(s.Schema)
		relation.Range(s.N, chunk, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				flag := uint64(1)
				if s.Annot[i] == 0 || s.Rel.IsDummy(i) {
					flag = 0
				}
				res.Append(append([]uint64(nil), s.Rel.Tuples[i]...), flag)
			}
			return nil
		})
		return res, nil
	}
	// Bob holds the rows: he sends each real nonzero row, or dummy
	// markers, in one message of public size. Chunking assembles the
	// message in windows but never splits it — one message either way.
	if p.Role == mpc.Bob {
		msg := make([]uint64, 0, s.N*cols)
		relation.Range(s.N, chunk, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				for c := 0; c < cols; c++ {
					v := s.Rel.Tuples[i][c]
					if s.Annot[i] == 0 || s.Rel.IsDummy(i) {
						v = dummyMarker
					}
					msg = append(msg, v)
				}
			}
			return nil
		})
		return nil, transport.SendUint64s(p.Conn, msg)
	}
	vals, err := transport.RecvUint64s(p.Conn)
	if err != nil {
		return nil, err
	}
	if len(vals) != s.N*cols {
		return nil, fmt.Errorf("core: plain reveal got %d values, want %d", len(vals), s.N*cols)
	}
	res := relation.New(s.Schema)
	relation.Range(s.N, chunk, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			row := make([]uint64, cols)
			flag := uint64(1)
			for c := 0; c < cols; c++ {
				row[c] = vals[i*cols+c]
				if row[c] == dummyMarker || relation.IsDummyValue(row[c]) {
					flag = 0
				}
			}
			res.Append(row, flag)
		}
		return nil
	})
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

// RevealRelation reveals a shared relation's real content to Alice: the
// rows (via the zero-test circuit) and the annotations (via share
// exchange). Used as the last step of a query whose reduce phase leaves a
// single node (e.g. TPC-H Q3, §8.1), where the relation *is* the query
// result. Alice receives the filtered relation; Bob receives nil.
func RevealRelation(p *mpc.Party, s *SharedRelation) (*relation.Relation, error) {
	return revealRelationChunked(p, s, 0)
}

// revealRelationChunked is RevealRelation with an explicit tuple-plane
// chunk size (0 = the default, negative = unbounded).
func revealRelationChunked(p *mpc.Party, s *SharedRelation, chunk int) (*relation.Relation, error) {
	revealed, err := revealNonzeroRows(p, s, chunk)
	if err != nil {
		return nil, err
	}
	vals, err := RevealAnnotations(p, s, mpc.Alice)
	if err != nil {
		return nil, err
	}
	if p.Role != mpc.Alice {
		return nil, nil
	}
	out := relation.New(s.Schema)
	for i := range revealed.Tuples {
		if revealed.Annot[i] == 1 && vals[i] != 0 {
			out.Append(revealed.Tuples[i], vals[i])
		}
	}
	return out, nil
}
