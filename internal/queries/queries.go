// Package queries implements the five TPC-H queries of the paper's
// evaluation (§8.1) — Q3, Q10, Q18, Q8 and Q9 — each as a secure
// Yannakakis execution plus a plaintext reference evaluation (the
// "non-private" baseline standing in for MySQL). The relation-to-party
// assignment follows the paper's methodology: relations are partitioned
// so that every join crosses the party boundary ("the worst possible way
// to partition the relations").
//
// All selection conditions are treated as private (§7 option 2): tuples
// failing a condition are replaced by zero-annotated dummy tuples, so
// relation sizes — the only thing the protocol's cost may depend on —
// stay at their public values.
package queries

import (
	"context"
	"fmt"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/tpch"
	"secyan/internal/yannakakis"
)

// Attr aliases the relation attribute type for brevity.
type Attr = relation.Attr

// Spec describes one evaluation query.
type Spec struct {
	Name        string
	Figure      int // paper figure number reproducing this query
	Description string
	// SecureOpts executes the 2PC protocol under opts; Alice receives
	// the results. Both parties must pass the same options.
	SecureOpts func(p *mpc.Party, db *tpch.DB, opts core.Options) (*relation.Relation, error)
	// Plain evaluates the query in the clear with the plaintext
	// Yannakakis engine over the same ring.
	Plain func(db *tpch.DB, bits int) (*relation.Relation, error)
	// EffectiveBytes is the paper's x-axis: the total size of the columns
	// involved in the query (4 bytes per value).
	EffectiveBytes func(db *tpch.DB) int64
}

// All returns the five paper queries in figure order.
func All() []Spec {
	return []Spec{Q3(), Q10(), Q18(), Q8(), Q9(tpch.NumNations)}
}

// maskProject builds a query-input relation from a base relation: rows
// satisfying pred are projected to cols and annotated by annot; all other
// rows become zero-annotated dummies. The output size equals the input
// size, keeping selectivities private (§7 option 2).
func maskProject(src *relation.Relation, cols []Attr, pred func(row []uint64) bool,
	annot func(row []uint64) uint64, dg *relation.DummyGen) *relation.Relation {
	idx, err := src.Schema.Positions(cols)
	if err != nil {
		// cols are literal attribute names of the generated TPC-H
		// schemas, fixed by the query builders of this package; no peer
		// input reaches here.
		panic(err)
	}
	return src.Mask(relation.MustSchema(cols...), idx, pred, annot, dg)
}

// one is the constant-1 annotation.
func one(row []uint64) uint64 { return 1 }

// volume is l_extendedprice * (100 - l_discount): revenue scaled by 100,
// the paper's fixed-point treatment of 1 - discount (Example 3.1).
func volume(li *relation.Relation) func(row []uint64) uint64 {
	price := li.Schema.Index("extprice")
	disc := li.Schema.Index("discount")
	return func(row []uint64) uint64 { return row[price] * (100 - row[disc]) }
}

// inputFor builds a core.Input, attaching the relation only on the
// owner's side.
func inputFor(p *mpc.Party, name string, owner mpc.Role, rel *relation.Relation) core.Input {
	in := core.Input{Name: name, Owner: owner, Schema: rel.Schema, N: rel.Len()}
	if p.Role == owner {
		in.Rel = rel
	}
	return in
}

// plainRun evaluates a prepared query in the clear.
func plainRun(inputs []*relation.Relation, names []string, output []Attr, bits int) (*relation.Relation, error) {
	h := &core.Query{}
	for i, r := range inputs {
		h.Inputs = append(h.Inputs, core.Input{Name: names[i], Schema: r.Schema, N: r.Len(), Rel: r})
	}
	tree, err := h.Hypergraph().Plan(output)
	if err != nil {
		return nil, err
	}
	res, err := yannakakis.Run(tree, inputs, output, relation.RingSemiring{Bits: bits})
	if err != nil {
		return nil, err
	}
	return res.DropZeroAnnotated(), nil
}

// ---------------------------------------------------------------------
// Query 3 (Figure 2)
// ---------------------------------------------------------------------

// q3Date is 1995-03-13 (the paper's literal).
var q3Date = tpch.Day(1995, 3, 13)

// q3Relations prepares the three masked input relations.
func q3Relations(db *tpch.DB) (cust, ord, li *relation.Relation) {
	var dgC, dgO, dgL relation.DummyGen
	segIdx := db.Customer.Schema.Index("mktsegment")
	cust = maskProject(db.Customer, []Attr{"custkey"},
		func(row []uint64) bool { return row[segIdx] == tpch.SegmentAutomobile }, one, &dgC)
	dateIdx := db.Orders.Schema.Index("orderdate")
	ord = maskProject(db.Orders, []Attr{"orderkey", "custkey", "orderdate", "shippriority"},
		func(row []uint64) bool { return row[dateIdx] < q3Date }, one, &dgO)
	shipIdx := db.Lineitem.Schema.Index("shipdate")
	li = maskProject(db.Lineitem, []Attr{"orderkey"},
		func(row []uint64) bool { return row[shipIdx] > q3Date }, volume(db.Lineitem), &dgL)
	return
}

var q3Output = []Attr{"orderkey", "orderdate", "shippriority"}

// Q3 is TPC-H Query 3: a vanilla free-connex join-aggregate query whose
// reduce phase collapses the join tree to a single node (paper §8.1).
func Q3() Spec {
	return Spec{
		Name:        "Q3",
		Figure:      2,
		Description: "revenue by order over customer ⋈ orders ⋈ lineitem, private selections",
		SecureOpts: func(p *mpc.Party, db *tpch.DB, opts core.Options) (*relation.Relation, error) {
			cust, ord, li := q3Relations(db)
			q := &core.Query{
				Inputs: []core.Input{
					inputFor(p, "customer", mpc.Alice, cust),
					inputFor(p, "orders", mpc.Bob, ord),
					inputFor(p, "lineitem", mpc.Alice, li),
				},
				Output: q3Output,
			}
			rel, _, err := core.Run(context.Background(), p, q, opts)
			return rel, err
		},
		Plain: func(db *tpch.DB, bits int) (*relation.Relation, error) {
			cust, ord, li := q3Relations(db)
			return plainRun([]*relation.Relation{cust, ord, li},
				[]string{"customer", "orders", "lineitem"}, q3Output, bits)
		},
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(2*db.Customer.Len()+4*db.Orders.Len()+4*db.Lineitem.Len())
		},
	}
}

// ---------------------------------------------------------------------
// Query 10 (Figure 3)
// ---------------------------------------------------------------------

var (
	q10DateLo = tpch.Day(1993, 8, 1)
	q10DateHi = tpch.Day(1993, 11, 1)
)

func q10Relations(db *tpch.DB) (cust, ord, li *relation.Relation) {
	var dgC, dgO, dgL relation.DummyGen
	cust = maskProject(db.Customer, []Attr{"custkey", "c_name", "c_nationkey"}, nil, one, &dgC)
	dateIdx := db.Orders.Schema.Index("orderdate")
	ord = maskProject(db.Orders, []Attr{"orderkey", "custkey"},
		func(row []uint64) bool { return row[dateIdx] >= q10DateLo && row[dateIdx] < q10DateHi }, one, &dgO)
	flagIdx := db.Lineitem.Schema.Index("returnflag")
	li = maskProject(db.Lineitem, []Attr{"orderkey"},
		func(row []uint64) bool { return row[flagIdx] == tpch.ReturnR }, volume(db.Lineitem), &dgL)
	return
}

var q10Output = []Attr{"custkey", "c_name", "c_nationkey"}

// Q10 is TPC-H Query 10 with the nation relation treated as public and
// the query rewritten to group by c_nationkey (paper §8.1).
func Q10() Spec {
	return Spec{
		Name:        "Q10",
		Figure:      3,
		Description: "revenue by customer over customer ⋈ orders ⋈ lineitem (nation public)",
		SecureOpts: func(p *mpc.Party, db *tpch.DB, opts core.Options) (*relation.Relation, error) {
			cust, ord, li := q10Relations(db)
			q := &core.Query{
				Inputs: []core.Input{
					inputFor(p, "customer", mpc.Alice, cust),
					inputFor(p, "orders", mpc.Bob, ord),
					inputFor(p, "lineitem", mpc.Alice, li),
				},
				Output: q10Output,
			}
			rel, _, err := core.Run(context.Background(), p, q, opts)
			return rel, err
		},
		Plain: func(db *tpch.DB, bits int) (*relation.Relation, error) {
			cust, ord, li := q10Relations(db)
			return plainRun([]*relation.Relation{cust, ord, li},
				[]string{"customer", "orders", "lineitem"}, q10Output, bits)
		},
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(3*db.Customer.Len()+3*db.Orders.Len()+4*db.Lineitem.Len())
		},
	}
}

// ---------------------------------------------------------------------
// Query 18 (Figure 4)
// ---------------------------------------------------------------------

// Q18Threshold is the having-clause constant (sum(l_quantity) > 300).
const Q18Threshold = 300

func q18Relations(db *tpch.DB, threshold uint64) (cust, ord, li, sub *relation.Relation) {
	var dgC, dgO, dgL, dgS relation.DummyGen
	cust = maskProject(db.Customer, []Attr{"custkey", "c_name"}, nil, one, &dgC)
	ord = maskProject(db.Orders, []Attr{"orderkey", "custkey", "orderdate", "totalprice"}, nil, one, &dgO)
	qtyIdx := db.Lineitem.Schema.Index("quantity")
	li = maskProject(db.Lineitem, []Attr{"orderkey"}, nil,
		func(row []uint64) uint64 { return row[qtyIdx] }, &dgL)

	// The in-subquery is evaluated locally by the lineitem owner and
	// padded with dummies to |lineitem| to hide its result size (§8.1).
	okIdx := db.Lineitem.Schema.Index("orderkey")
	sums := map[uint64]uint64{}
	for i := range db.Lineitem.Tuples {
		sums[db.Lineitem.Tuples[i][okIdx]] += db.Lineitem.Tuples[i][qtyIdx]
	}
	sub = relation.New(relation.MustSchema("orderkey"))
	for i := range db.Orders.Tuples {
		ok := db.Orders.Tuples[i][0]
		if sums[ok] > threshold {
			sub.Append([]uint64{ok}, 1)
		}
	}
	for sub.Len() < db.Lineitem.Len() {
		sub.Append([]uint64{dgS.Next()}, 0)
	}
	return
}

var q18Output = []Attr{"c_name", "custkey", "orderkey", "orderdate", "totalprice"}

// Q18 is TPC-H Query 18: the large-orders query, whose in-subquery is
// evaluated locally by the lineitem owner and padded (paper §8.1). Its
// reduce phase leaves two nodes, exercising the semijoin and oblivious
// join phases.
func Q18() Spec { return q18WithThreshold(Q18Threshold) }

func q18WithThreshold(threshold uint64) Spec {
	return Spec{
		Name:        "Q18",
		Figure:      4,
		Description: "large orders: customer ⋈ orders ⋈ lineitem ⋈ (having sum(qty) > threshold)",
		SecureOpts: func(p *mpc.Party, db *tpch.DB, opts core.Options) (*relation.Relation, error) {
			cust, ord, li, sub := q18Relations(db, threshold)
			q := &core.Query{
				Inputs: []core.Input{
					inputFor(p, "customer", mpc.Bob, cust),
					inputFor(p, "orders", mpc.Alice, ord),
					inputFor(p, "lineitem", mpc.Bob, li),
					inputFor(p, "subquery", mpc.Bob, sub),
				},
				Output: q18Output,
			}
			rel, _, err := core.Run(context.Background(), p, q, opts)
			return rel, err
		},
		Plain: func(db *tpch.DB, bits int) (*relation.Relation, error) {
			cust, ord, li, sub := q18Relations(db, threshold)
			return plainRun([]*relation.Relation{cust, ord, li, sub},
				[]string{"customer", "orders", "lineitem", "subquery"}, q18Output, bits)
		},
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(2*db.Customer.Len()+4*db.Orders.Len()+2*db.Lineitem.Len()+2*db.Lineitem.Len())
		},
	}
}

// ---------------------------------------------------------------------
// Query 8 (Figure 5)
// ---------------------------------------------------------------------

var (
	q8DateLo = tpch.Day(1995, 1, 1)
	q8DateHi = tpch.Day(1996, 12, 31)
	// q8PartType stands in for 'SMALL PLATED COPPER' (1 of 150 types).
	q8PartType  = uint64(37)
	q8Nation    = uint64(8)                                                       // BRAZIL
	q8CustGroup = map[uint64]bool{8: true, 9: true, 12: true, 18: true, 21: true} // AMERICA region
)

// q8Relations prepares the five masked relations; supplier annotations
// come in two variants: Ind(s_nationkey = 8) for the numerator query and
// 1 for the denominator query (paper §8.1).
func q8Relations(db *tpch.DB) (part, supNum, supDen, li, ord, cust *relation.Relation) {
	var dgP, dgS1, dgS2, dgL, dgO, dgC relation.DummyGen
	typeIdx := db.Part.Schema.Index("p_type")
	part = maskProject(db.Part, []Attr{"partkey"},
		func(row []uint64) bool { return row[typeIdx] == q8PartType }, one, &dgP)
	natIdx := db.Supplier.Schema.Index("s_nationkey")
	supNum = maskProject(db.Supplier, []Attr{"suppkey"}, nil,
		func(row []uint64) uint64 {
			if row[natIdx] == q8Nation {
				return 1
			}
			return 0
		}, &dgS1)
	supDen = maskProject(db.Supplier, []Attr{"suppkey"}, nil, one, &dgS2)
	li = maskProject(db.Lineitem, []Attr{"partkey", "suppkey", "orderkey"}, nil, volume(db.Lineitem), &dgL)

	// o_year is a virtual column extracted from o_orderdate (§8.1).
	dateIdx := db.Orders.Schema.Index("orderdate")
	ordBase := relation.New(relation.MustSchema("orderkey", "custkey", "o_year", "orderdate"))
	for i := range db.Orders.Tuples {
		row := db.Orders.Tuples[i]
		year := uint64(tpch.Epoch.AddDate(0, 0, int(row[dateIdx])).Year())
		ordBase.Append([]uint64{row[0], row[1], year, row[dateIdx]}, 1)
	}
	baseDate := ordBase.Schema.Index("orderdate")
	ord = maskProject(ordBase, []Attr{"orderkey", "custkey", "o_year"},
		func(row []uint64) bool { return row[baseDate] >= q8DateLo && row[baseDate] <= q8DateHi },
		one, &dgO)
	cnIdx := db.Customer.Schema.Index("c_nationkey")
	cust = maskProject(db.Customer, []Attr{"custkey"},
		func(row []uint64) bool { return q8CustGroup[row[cnIdx]] }, one, &dgC)
	return
}

var q8Output = []Attr{"o_year"}

// Q8 is TPC-H Query 8: national market share, composed of two
// join-aggregate queries whose ratio is taken by a final garbled circuit
// (paper §7 and §8.1). The revealed value is mkt_share in percent.
func Q8() Spec {
	return Spec{
		Name:        "Q8",
		Figure:      5,
		Description: "market share by year: ratio of two sums over a 5-relation join",
		SecureOpts: func(p *mpc.Party, db *tpch.DB, opts core.Options) (*relation.Relation, error) {
			part, supNum, supDen, li, ord, cust := q8Relations(db)
			build := func(sup *relation.Relation) *core.Query {
				return &core.Query{
					Inputs: []core.Input{
						inputFor(p, "part", mpc.Alice, part),
						inputFor(p, "supplier", mpc.Bob, sup),
						inputFor(p, "lineitem", mpc.Alice, li),
						inputFor(p, "orders", mpc.Bob, ord),
						inputFor(p, "customer", mpc.Alice, cust),
					},
					Output: q8Output,
				}
			}
			num, _, err := core.RunShared(context.Background(), p, build(supNum), opts)
			if err != nil {
				return nil, fmt.Errorf("q8 numerator: %w", err)
			}
			den, _, err := core.RunShared(context.Background(), p, build(supDen), opts)
			if err != nil {
				return nil, fmt.Errorf("q8 denominator: %w", err)
			}
			return core.RevealRatio(p, num, den, 100)
		},
		Plain: func(db *tpch.DB, bits int) (*relation.Relation, error) {
			part, supNum, supDen, li, ord, cust := q8Relations(db)
			names := []string{"part", "supplier", "lineitem", "orders", "customer"}
			num, err := plainRun([]*relation.Relation{part, supNum, li, ord, cust}, names, q8Output, bits)
			if err != nil {
				return nil, err
			}
			den, err := plainRun([]*relation.Relation{part, supDen, li, ord, cust}, names, q8Output, bits)
			if err != nil {
				return nil, err
			}
			nm := map[uint64]uint64{}
			for i := range num.Tuples {
				nm[num.Tuples[i][0]] = num.Annot[i]
			}
			out := relation.New(relation.MustSchema(q8Output...))
			for i := range den.Tuples {
				if den.Annot[i] == 0 {
					continue
				}
				out.Append(den.Tuples[i], nm[den.Tuples[i][0]]*100/den.Annot[i])
			}
			return out, nil
		},
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(2*db.Part.Len()+2*db.Supplier.Len()+5*db.Lineitem.Len()+
				3*db.Orders.Len()+2*db.Customer.Len())
		},
	}
}

// ---------------------------------------------------------------------
// Query 9 (Figure 6)
// ---------------------------------------------------------------------

// Q9 is TPC-H Query 9: product-type profit. The query is acyclic but not
// free-connex, so following §8.1 it is decomposed into one pair of
// join-aggregate queries per nation (25 in TPC-H): the revenue sum and
// the cost sum, subtracted on shares and revealed per (nation, year).
// numNations limits the decomposition for cheaper benchmark runs; pass
// tpch.NumNations for the paper's full query.
func Q9(numNations int) Spec {
	return Spec{
		Name:        "Q9",
		Figure:      6,
		Description: "profit by nation and year: 25 × 2 decomposed join-aggregate queries",
		SecureOpts: func(p *mpc.Party, db *tpch.DB, opts core.Options) (*relation.Relation, error) {
			out := relation.New(relation.MustSchema("s_nationkey", "o_year"))
			for nation := 0; nation < numNations; nation++ {
				rel, err := q9Nation(p, db, uint64(nation), opts)
				if err != nil {
					return nil, fmt.Errorf("q9 nation %d: %w", nation, err)
				}
				if p.Role == mpc.Alice {
					for i := range rel.Tuples {
						out.Append([]uint64{uint64(nation), rel.Tuples[i][0]}, rel.Annot[i])
					}
				}
			}
			if p.Role != mpc.Alice {
				return nil, nil
			}
			return out, nil
		},
		Plain: func(db *tpch.DB, bits int) (*relation.Relation, error) {
			ring := relation.RingSemiring{Bits: bits}
			out := relation.New(relation.MustSchema("s_nationkey", "o_year"))
			names := []string{"part", "supplier", "lineitem", "partsupp", "orders"}
			for nation := 0; nation < numNations; nation++ {
				part, sup, liV, liQ, psOne, psCost, ord := q9Relations(db, uint64(nation))
				rev, err := plainRun([]*relation.Relation{part, sup, liV, psOne, ord}, names, q9Output, bits)
				if err != nil {
					return nil, err
				}
				cost, err := plainRun([]*relation.Relation{part, sup, liQ, psCost, ord}, names, q9Output, bits)
				if err != nil {
					return nil, err
				}
				cm := map[uint64]uint64{}
				for i := range cost.Tuples {
					cm[cost.Tuples[i][0]] = cost.Annot[i]
				}
				seen := map[uint64]bool{}
				for i := range rev.Tuples {
					y := rev.Tuples[i][0]
					seen[y] = true
					amt := ring.Sub(rev.Annot[i], cm[y])
					if amt != 0 {
						out.Append([]uint64{uint64(nation), y}, amt)
					}
				}
				for i := range cost.Tuples {
					y := cost.Tuples[i][0]
					if !seen[y] && cost.Annot[i] != 0 {
						out.Append([]uint64{uint64(nation), y}, ring.Sub(0, cost.Annot[i]))
					}
				}
			}
			return out, nil
		},
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(2*db.Part.Len()+2*db.Supplier.Len()+6*db.Lineitem.Len()+
				3*db.PartSupp.Len()+2*db.Orders.Len())
		},
	}
}

var q9Output = []Attr{"o_year"}

// q9Relations prepares the per-nation masked relations and the two
// annotation variants (volume vs quantity on lineitem, 1 vs supplycost on
// partsupp).
func q9Relations(db *tpch.DB, nation uint64) (part, sup, liV, liQ, psOne, psCost, ord *relation.Relation) {
	var dgP, dgS, dgL1, dgL2, dgPS1, dgPS2, dgO relation.DummyGen
	greenIdx := db.Part.Schema.Index("p_green")
	part = maskProject(db.Part, []Attr{"partkey"},
		func(row []uint64) bool { return row[greenIdx] == 1 }, one, &dgP)
	natIdx := db.Supplier.Schema.Index("s_nationkey")
	sup = maskProject(db.Supplier, []Attr{"suppkey"},
		func(row []uint64) bool { return row[natIdx] == nation }, one, &dgS)
	qtyIdx := db.Lineitem.Schema.Index("quantity")
	liV = maskProject(db.Lineitem, []Attr{"partkey", "suppkey", "orderkey"}, nil, volume(db.Lineitem), &dgL1)
	liQ = maskProject(db.Lineitem, []Attr{"partkey", "suppkey", "orderkey"}, nil,
		func(row []uint64) uint64 { return row[qtyIdx] * 100 }, &dgL2)
	costIdx := db.PartSupp.Schema.Index("supplycost")
	psOne = maskProject(db.PartSupp, []Attr{"partkey", "suppkey"}, nil, one, &dgPS1)
	psCost = maskProject(db.PartSupp, []Attr{"partkey", "suppkey"}, nil,
		func(row []uint64) uint64 { return row[costIdx] }, &dgPS2)
	dateIdx := db.Orders.Schema.Index("orderdate")
	ordBase := relation.New(relation.MustSchema("orderkey", "o_year"))
	for i := range db.Orders.Tuples {
		row := db.Orders.Tuples[i]
		year := uint64(tpch.Epoch.AddDate(0, 0, int(row[dateIdx])).Year())
		ordBase.Append([]uint64{row[0], year}, 1)
	}
	ord = maskProject(ordBase, []Attr{"orderkey", "o_year"}, nil, one, &dgO)
	return
}

// q9Nation runs the two shared queries for one nation and reveals the
// difference.
func q9Nation(p *mpc.Party, db *tpch.DB, nation uint64, opts core.Options) (*relation.Relation, error) {
	part, sup, liV, liQ, psOne, psCost, ord := q9Relations(db, nation)
	build := func(li, ps *relation.Relation) *core.Query {
		return &core.Query{
			Inputs: []core.Input{
				inputFor(p, "part", mpc.Alice, part),
				inputFor(p, "supplier", mpc.Bob, sup),
				inputFor(p, "lineitem", mpc.Alice, li),
				inputFor(p, "partsupp", mpc.Bob, ps),
				inputFor(p, "orders", mpc.Bob, ord),
			},
			Output: q9Output,
		}
	}
	rev, _, err := core.RunShared(context.Background(), p, build(liV, psOne), opts)
	if err != nil {
		return nil, fmt.Errorf("revenue: %w", err)
	}
	cost, _, err := core.RunShared(context.Background(), p, build(liQ, psCost), opts)
	if err != nil {
		return nil, fmt.Errorf("cost: %w", err)
	}
	diff, err := rev.Subtract(p.Ring, cost)
	if err != nil {
		return nil, err
	}
	return diff.Reveal(p, q9Output)
}
