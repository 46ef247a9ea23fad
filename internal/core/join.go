package core

import (
	"fmt"
	"sort"

	"secyan/internal/gc"
	"secyan/internal/jointree"
	"secyan/internal/mpc"
	"secyan/internal/oep"
	"secyan/internal/relation"
	"secyan/internal/transport"
	"secyan/internal/yannakakis"
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
//     an OEP programmed by Alice, and multiplies the factors per row in
//     one garbled circuit, yielding shared result annotations.

// dummyMarker is the revealed value of a suppressed column: all ones,
// which no real value (< 2^61) or padding dummy (< 2^62) can equal.
const dummyMarker = ^uint64(0)

// attrBits is the width of revealed attribute values.
const attrBits = 64

// revealGadget is the §6.3 step-1 gadget of one tuple with `cols`
// columns: the evaluator (Alice) inputs her annotation share; the
// garbler's share enters as private bits; if withRows is true the
// garbler's column values follow as private bits and the gadget reveals
// (zero ? dummyMarker : value) per column; otherwise only the zero bit is
// revealed (Alice already holds the rows).
func revealGadget(b *gc.Builder, cols, ell int, withRows bool) {
	z := b.IsZero(b.AddPrivate(b.EvalInputWord(ell), b.PrivateWord(ell)))
	if !withRows {
		b.OutputToEval(z)
		return
	}
	nz := b.Not(z)
	for c := 0; c < cols; c++ {
		val := b.PrivateWord(attrBits)
		out := make(gc.Word, attrBits)
		for k := 0; k < attrBits; k++ {
			out[k] = b.XOR(b.ANDG(nz, val[k]), z)
		}
		b.OutputWordToEval(out)
	}
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
		res := relation.New(s.Schema)
		relation.Range(n, chunk, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if !withRows {
					zero := out[i]
					row := append([]uint64(nil), s.Rel.Tuples[i]...)
					flag := uint64(1)
					if zero || s.Rel.IsDummy(i) {
						flag = 0
					}
					res.Append(row, flag)
					continue
				}
				row := make([]uint64, cols)
				flag := uint64(1)
				for c := 0; c < cols; c++ {
					off := (i*cols + c) * attrBits
					row[c] = gc.UintOfBits(out[off : off+attrBits])
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

	// Bob's side: garbler with private shares (and rows when he holds
	// them).
	priv := make([]bool, 0, n*(ell+cols*attrBits))
	relation.Range(n, chunk, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			priv = gc.AppendBits(priv, s.Annot[i], ell)
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

// productGadget multiplies the k shared factors of one row. Private-bit
// order: per factor, the garbler's share; then the negated output mask.
func productGadget(b *gc.Builder, k, ell int) {
	var acc gc.Word
	for f := 0; f < k; f++ {
		v := b.AddPrivate(b.EvalInputWord(ell), b.PrivateWord(ell))
		if f == 0 {
			acc = v
		} else {
			acc = b.Mul(acc, v)
		}
	}
	b.OutputWordToEval(b.AddPrivate(acc, b.PrivateWord(ell)))
}

// buildProductCircuit repeats productGadget once per row.
func buildProductCircuit(n, k, ell int) *gc.Circuit {
	b := gc.NewBuilder()
	productGadget(b, k, ell)
	return b.BuildSlots(n)
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

// ObliviousJoin executes §6.3 over the surviving tree nodes. srs is
// indexed by tree node; nodes lists the participating node indices.
func ObliviousJoin(p *mpc.Party, tree *jointree.Tree, srs []*SharedRelation, nodes []int) (*JoinResult, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("core: oblivious join over no relations")
	}
	order := append([]int(nil), nodes...)
	sort.Ints(order)

	// Step 1: reveal nonzero tuples of every participating relation.
	revealed := make(map[int]*relation.Relation, len(order))
	for _, node := range order {
		r, err := revealNonzeroRows(p, srs[node], 0)
		if err != nil {
			return nil, fmt.Errorf("core: reveal node %d: %w", node, err)
		}
		revealed[node] = r
	}

	// Step 2: Alice joins locally with provenance and shares OUT.
	var out int
	var prov *yannakakis.Provenance
	if p.Role == mpc.Alice {
		rels := make([]*relation.Relation, len(srs))
		for i, s := range srs {
			if r, ok := revealed[i]; ok {
				rels[i] = r
			} else {
				rels[i] = relation.New(s.Schema)
			}
		}
		var err error
		prov, err = yannakakis.JoinProvenance(tree, rels, order)
		if err != nil {
			return nil, err
		}
		out = prov.Result.Len()
		if err := sendPublicSize(p.Conn, out); err != nil {
			return nil, err
		}
	} else {
		var err error
		out, err = recvPublicSize(p.Conn)
		if err != nil {
			return nil, err
		}
	}

	// Union schema in join order (r's attrs, then new attrs per node).
	schema := unionSchema(srs, order)
	if out == 0 {
		res := &JoinResult{N: 0, Schema: schema}
		if p.Role == mpc.Alice {
			res.Rows = relation.New(schema)
		}
		return res, nil
	}

	// Step 3: align annotation shares per relation via OEP, then multiply.
	factors := make([][]uint64, len(order))
	for fi, node := range order {
		if p.Role == mpc.Alice {
			xi := make([]int, out)
			for row := 0; row < out; row++ {
				src := prov.Sources[row][node]
				if src < 0 {
					return nil, fmt.Errorf("core: missing provenance for node %d", node)
				}
				xi[row] = src
			}
			f, err := oep.RunProgrammer(p, xi, srs[node].N, srs[node].Annot)
			if err != nil {
				return nil, err
			}
			factors[fi] = f
		} else {
			f, err := oep.RunHelper(p, srs[node].N, out, srs[node].Annot)
			if err != nil {
				return nil, err
			}
			factors[fi] = f
		}
	}

	ell := p.Ring.Bits
	circ := buildProductCircuit(out, len(order), ell)
	annot := make([]uint64, out)
	if p.Role == mpc.Alice {
		evalBits := make([]bool, 0, out*len(order)*ell)
		for row := 0; row < out; row++ {
			for fi := range order {
				evalBits = gc.AppendBits(evalBits, factors[fi][row], ell)
			}
		}
		bits, err := p.RunCircuit(circ, evalBits, nil, mpc.Bob)
		if err != nil {
			return nil, err
		}
		for row := 0; row < out; row++ {
			annot[row] = p.Ring.Mask(gc.UintOfBits(bits[row*ell : (row+1)*ell]))
		}
	} else {
		priv := make([]bool, 0, out*(len(order)+1)*ell)
		for row := 0; row < out; row++ {
			for fi := range order {
				priv = gc.AppendBits(priv, factors[fi][row], ell)
			}
			annot[row] = p.Ring.Random(p.PRG)
			priv = gc.AppendBits(priv, p.Ring.Neg(annot[row]), ell)
		}
		if _, err := p.RunCircuit(circ, nil, priv, mpc.Bob); err != nil {
			return nil, err
		}
	}

	res := &JoinResult{N: out, Schema: schema, Annot: annot}
	if p.Role == mpc.Alice {
		// Reorder the provenance result columns to the union schema.
		rows := relation.New(schema)
		cols, err := prov.Result.Schema.Positions(schema.Attrs)
		if err != nil {
			return nil, err
		}
		for i := range prov.Result.Tuples {
			row := make([]uint64, len(cols))
			for c, cc := range cols {
				row[c] = prov.Result.Tuples[i][cc]
			}
			rows.Append(row, 0)
		}
		res.Rows = rows
	}
	return res, nil
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
