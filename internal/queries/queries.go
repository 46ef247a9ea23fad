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

// The queries' Output lists are package variables, not literals built
// per run: a revealed result's schema aliases its query's Output (core's
// reorder), so results a caller holds share one list instead of
// each keeping its own.
var (
	q3Output   = []Attr{"orderkey", "orderdate", "shippriority"}
	q10Output  = []Attr{"custkey", "c_name", "c_nationkey"}
	q18Output  = []Attr{"c_name", "custkey", "orderkey", "orderdate", "totalprice"}
	yearOutput = []Attr{"o_year"} // Q8's and Q9's
)

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
	// parts describes the queries of the spec's first secure pass, in run
	// order, every relation attached: the one statement of the query that
	// Plain and PlanFor read whole, and SecureOpts runs as each party's
	// view.
	parts func(db *tpch.DB) []*core.Query
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

// view is which relations a query description attaches: every one
// (whole: what Plain and PlanFor read) or one party's own, as
// core.Query.For leaves them. A party's view builds no relation of its
// peer's: their masks never run.
type view struct {
	whole bool
	role  mpc.Role
}

// whole is the description with every relation attached.
var whole = view{whole: true}

// viewOf is role's view of a description.
func viewOf(role mpc.Role) view { return view{role: role} }

// input declares one input of a query: its schema and size are public,
// and rel builds its relation, called only when v attaches owner's
// relations.
func (v view) input(name string, owner mpc.Role, schema relation.Schema, n int, rel func() *relation.Relation) core.Input {
	in := core.Input{Name: name, Owner: owner, Schema: schema, N: n}
	if v.whole || v.role == owner {
		in.Rel = rel()
	}
	return in
}

// masked declares an input that maskProject builds from src.
func (v view) masked(name string, owner mpc.Role, src *relation.Relation, cols []Attr,
	pred func(row []uint64) bool, annot func(row []uint64) uint64, dg *relation.DummyGen) core.Input {
	return v.input(name, owner, relation.MustSchema(cols...), src.Len(), func() *relation.Relation {
		return maskProject(src, cols, pred, annot, dg)
	})
}

// single completes spec for a query that runs once and is revealed.
func single(spec Spec, build func(db *tpch.DB, v view) *core.Query) Spec {
	spec.SecureOpts = func(p *mpc.Party, db *tpch.DB, opts core.Options) (*relation.Relation, error) {
		rel, _, err := core.Run(context.Background(), p, build(db, viewOf(p.Role)), opts)
		return rel, err
	}
	spec.Plain = func(db *tpch.DB, bits int) (*relation.Relation, error) { return plainRun(build(db, whole), bits) }
	spec.parts = func(db *tpch.DB) []*core.Query { return []*core.Query{build(db, whole)} }
	return spec
}

// ratio completes spec for a composition of two queries of one shape,
// run to shares and revealed as ⌊num·scale/den⌋ per row with a nonzero
// denominator (§7).
func ratio(spec Spec, scale uint64, build func(db *tpch.DB, v view) (num, den *core.Query)) Spec {
	spec.SecureOpts = func(p *mpc.Party, db *tpch.DB, opts core.Options) (*relation.Relation, error) {
		num, den := build(db, viewOf(p.Role))
		ns, _, err := core.RunShared(context.Background(), p, num, opts)
		if err != nil {
			return nil, fmt.Errorf("%s numerator: %w", spec.Name, err)
		}
		ds, _, err := core.RunShared(context.Background(), p, den, opts)
		if err != nil {
			return nil, fmt.Errorf("%s denominator: %w", spec.Name, err)
		}
		return core.RevealRatio(p, ns, ds, scale)
	}
	spec.Plain = func(db *tpch.DB, bits int) (*relation.Relation, error) {
		numQ, denQ := build(db, whole)
		num, err := plainRun(numQ, bits)
		if err != nil {
			return nil, err
		}
		den, err := plainRun(denQ, bits)
		if err != nil {
			return nil, err
		}
		nm := map[string]uint64{}
		for i := range num.Tuples {
			nm[fmt.Sprint(num.Tuples[i])] = num.Annot[i]
		}
		out := relation.New(relation.MustSchema(denQ.Output...))
		for i := range den.Tuples {
			out.Append(den.Tuples[i], nm[fmt.Sprint(den.Tuples[i])]*scale/den.Annot[i])
		}
		return out, nil
	}
	spec.parts = func(db *tpch.DB) []*core.Query {
		num, den := build(db, whole)
		return []*core.Query{num, den}
	}
	return spec
}

// plainRun evaluates a query description in the clear.
func plainRun(q *core.Query, bits int) (*relation.Relation, error) {
	tree, err := q.Hypergraph().Plan(q.Output)
	if err != nil {
		return nil, err
	}
	rels := make([]*relation.Relation, len(q.Inputs))
	for i, in := range q.Inputs {
		rels[i] = in.Rel
	}
	res, err := yannakakis.Run(tree, rels, q.Output, relation.RingSemiring{Bits: bits})
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

// q3Query describes Q3 over the three masked input relations.
func q3Query(db *tpch.DB, v view) *core.Query {
	var dgC, dgO, dgL relation.DummyGen
	segIdx := db.Customer.Schema.Index("mktsegment")
	dateIdx := db.Orders.Schema.Index("orderdate")
	shipIdx := db.Lineitem.Schema.Index("shipdate")
	return &core.Query{
		Inputs: []core.Input{
			v.masked("customer", mpc.Alice, db.Customer, []Attr{"custkey"},
				func(row []uint64) bool { return row[segIdx] == tpch.SegmentAutomobile }, one, &dgC),
			v.masked("orders", mpc.Bob, db.Orders, []Attr{"orderkey", "custkey", "orderdate", "shippriority"},
				func(row []uint64) bool { return row[dateIdx] < q3Date }, one, &dgO),
			v.masked("lineitem", mpc.Alice, db.Lineitem, []Attr{"orderkey"},
				func(row []uint64) bool { return row[shipIdx] > q3Date }, volume(db.Lineitem), &dgL),
		},
		Output: q3Output,
	}
}

// Q3 is TPC-H Query 3: a vanilla free-connex join-aggregate query whose
// reduce phase collapses the join tree to a single node (paper §8.1).
func Q3() Spec {
	return single(Spec{
		Name:        "Q3",
		Figure:      2,
		Description: "revenue by order over customer ⋈ orders ⋈ lineitem, private selections",
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(2*db.Customer.Len()+4*db.Orders.Len()+4*db.Lineitem.Len())
		},
	}, q3Query)
}

// ---------------------------------------------------------------------
// Query 10 (Figure 3)
// ---------------------------------------------------------------------

var (
	q10DateLo = tpch.Day(1993, 8, 1)
	q10DateHi = tpch.Day(1993, 11, 1)
)

func q10Query(db *tpch.DB, v view) *core.Query {
	var dgC, dgO, dgL relation.DummyGen
	dateIdx := db.Orders.Schema.Index("orderdate")
	flagIdx := db.Lineitem.Schema.Index("returnflag")
	return &core.Query{
		Inputs: []core.Input{
			v.masked("customer", mpc.Alice, db.Customer, []Attr{"custkey", "c_name", "c_nationkey"}, nil, one, &dgC),
			v.masked("orders", mpc.Bob, db.Orders, []Attr{"orderkey", "custkey"},
				func(row []uint64) bool { return row[dateIdx] >= q10DateLo && row[dateIdx] < q10DateHi }, one, &dgO),
			v.masked("lineitem", mpc.Alice, db.Lineitem, []Attr{"orderkey"},
				func(row []uint64) bool { return row[flagIdx] == tpch.ReturnR }, volume(db.Lineitem), &dgL),
		},
		Output: q10Output,
	}
}

// Q10 is TPC-H Query 10 with the nation relation treated as public and
// the query rewritten to group by c_nationkey (paper §8.1).
func Q10() Spec {
	return single(Spec{
		Name:        "Q10",
		Figure:      3,
		Description: "revenue by customer over customer ⋈ orders ⋈ lineitem (nation public)",
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(3*db.Customer.Len()+3*db.Orders.Len()+4*db.Lineitem.Len())
		},
	}, q10Query)
}

// ---------------------------------------------------------------------
// Query 18 (Figure 4)
// ---------------------------------------------------------------------

// Q18Threshold is the having-clause constant (sum(l_quantity) > 300).
const Q18Threshold = 300

func q18Query(db *tpch.DB, threshold uint64, v view) *core.Query {
	var dgC, dgO, dgL, dgS relation.DummyGen
	qtyIdx := db.Lineitem.Schema.Index("quantity")

	// The in-subquery is evaluated locally by the lineitem owner and
	// padded with dummies to |lineitem| to hide its result size (§8.1).
	sub := func() *relation.Relation {
		okIdx := db.Lineitem.Schema.Index("orderkey")
		sums := map[uint64]uint64{}
		for i := range db.Lineitem.Tuples {
			sums[db.Lineitem.Tuples[i][okIdx]] += db.Lineitem.Tuples[i][qtyIdx]
		}
		sub := relation.New(relation.MustSchema("orderkey"))
		for i := range db.Orders.Tuples {
			ok := db.Orders.Tuples[i][0]
			if sums[ok] > threshold {
				sub.Append([]uint64{ok}, 1)
			}
		}
		for sub.Len() < db.Lineitem.Len() {
			sub.Append([]uint64{dgS.Next()}, 0)
		}
		return sub
	}
	return &core.Query{
		Inputs: []core.Input{
			v.masked("customer", mpc.Bob, db.Customer, []Attr{"custkey", "c_name"}, nil, one, &dgC),
			v.masked("orders", mpc.Alice, db.Orders, []Attr{"orderkey", "custkey", "orderdate", "totalprice"}, nil, one, &dgO),
			v.masked("lineitem", mpc.Bob, db.Lineitem, []Attr{"orderkey"}, nil,
				func(row []uint64) uint64 { return row[qtyIdx] }, &dgL),
			// An order passes only through its line items, so the
			// subquery never outgrows |lineitem|.
			v.input("subquery", mpc.Bob, relation.MustSchema("orderkey"), db.Lineitem.Len(), sub),
		},
		Output: q18Output,
	}
}

// Q18 is TPC-H Query 18: the large-orders query, whose in-subquery is
// evaluated locally by the lineitem owner and padded (paper §8.1). Its
// reduce phase leaves two nodes, exercising the semijoin and oblivious
// join phases.
func Q18() Spec { return q18WithThreshold(Q18Threshold) }

func q18WithThreshold(threshold uint64) Spec {
	return single(Spec{
		Name:        "Q18",
		Figure:      4,
		Description: "large orders: customer ⋈ orders ⋈ lineitem ⋈ (having sum(qty) > threshold)",
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(2*db.Customer.Len()+4*db.Orders.Len()+2*db.Lineitem.Len()+2*db.Lineitem.Len())
		},
	}, func(db *tpch.DB, v view) *core.Query { return q18Query(db, threshold, v) })
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

// q8Queries describes Q8's two queries over the five masked relations;
// they differ in the supplier annotation: Ind(s_nationkey = 8) for the
// numerator and 1 for the denominator (paper §8.1).
func q8Queries(db *tpch.DB, v view) (num, den *core.Query) {
	var dgP, dgS1, dgS2, dgL, dgO, dgC relation.DummyGen
	typeIdx := db.Part.Schema.Index("p_type")
	part := v.masked("part", mpc.Alice, db.Part, []Attr{"partkey"},
		func(row []uint64) bool { return row[typeIdx] == q8PartType }, one, &dgP)
	natIdx := db.Supplier.Schema.Index("s_nationkey")
	supNum := v.masked("supplier", mpc.Bob, db.Supplier, []Attr{"suppkey"}, nil,
		func(row []uint64) uint64 {
			if row[natIdx] == q8Nation {
				return 1
			}
			return 0
		}, &dgS1)
	supDen := v.masked("supplier", mpc.Bob, db.Supplier, []Attr{"suppkey"}, nil, one, &dgS2)
	li := v.masked("lineitem", mpc.Alice, db.Lineitem, []Attr{"partkey", "suppkey", "orderkey"}, nil, volume(db.Lineitem), &dgL)

	// o_year is a virtual column extracted from o_orderdate (§8.1).
	ordCols := []Attr{"orderkey", "custkey", "o_year"}
	ord := v.input("orders", mpc.Bob, relation.MustSchema(ordCols...), db.Orders.Len(), func() *relation.Relation {
		dateIdx := db.Orders.Schema.Index("orderdate")
		ordBase := relation.New(relation.MustSchema("orderkey", "custkey", "o_year", "orderdate"))
		for i := range db.Orders.Tuples {
			row := db.Orders.Tuples[i]
			year := uint64(tpch.Epoch.AddDate(0, 0, int(row[dateIdx])).Year())
			ordBase.Append([]uint64{row[0], row[1], year, row[dateIdx]}, 1)
		}
		baseDate := ordBase.Schema.Index("orderdate")
		return maskProject(ordBase, ordCols,
			func(row []uint64) bool { return row[baseDate] >= q8DateLo && row[baseDate] <= q8DateHi },
			one, &dgO)
	})
	cnIdx := db.Customer.Schema.Index("c_nationkey")
	cust := v.masked("customer", mpc.Alice, db.Customer, []Attr{"custkey"},
		func(row []uint64) bool { return q8CustGroup[row[cnIdx]] }, one, &dgC)
	query := func(sup core.Input) *core.Query {
		return &core.Query{
			Inputs: []core.Input{part, sup, li, ord, cust},
			Output: yearOutput,
		}
	}
	return query(supNum), query(supDen)
}

// Q8 is TPC-H Query 8: national market share, composed of two
// join-aggregate queries whose ratio is taken by a final garbled circuit
// (paper §7 and §8.1). The revealed value is mkt_share in percent.
func Q8() Spec {
	return ratio(Spec{
		Name:        "Q8",
		Figure:      5,
		Description: "market share by year: ratio of two sums over a 5-relation join",
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(2*db.Part.Len()+2*db.Supplier.Len()+5*db.Lineitem.Len()+
				3*db.Orders.Len()+2*db.Customer.Len())
		},
	}, 100, q8Queries)
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
	outSchema := relation.MustSchema("s_nationkey", "o_year")
	return Spec{
		Name:        "Q9",
		Figure:      6,
		Description: "profit by nation and year: 25 × 2 decomposed join-aggregate queries",
		SecureOpts: func(p *mpc.Party, db *tpch.DB, opts core.Options) (*relation.Relation, error) {
			out := relation.New(outSchema)
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
			out := relation.New(outSchema)
			for nation := 0; nation < numNations; nation++ {
				revQ, costQ := q9Queries(db, uint64(nation), whole)
				rev, err := plainRun(revQ, bits)
				if err != nil {
					return nil, err
				}
				cost, err := plainRun(costQ, bits)
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
		parts: func(db *tpch.DB) []*core.Query {
			rev, cost := q9Queries(db, 0, whole)
			return []*core.Query{rev, cost}
		},
	}
}

// q9Queries describes one nation's pair of queries: the revenue and the
// cost sum, which differ in their annotations (volume vs quantity on
// lineitem, 1 vs supplycost on partsupp).
func q9Queries(db *tpch.DB, nation uint64, v view) (rev, cost *core.Query) {
	var dgP, dgS, dgL1, dgL2, dgPS1, dgPS2, dgO relation.DummyGen
	greenIdx := db.Part.Schema.Index("p_green")
	part := v.masked("part", mpc.Alice, db.Part, []Attr{"partkey"},
		func(row []uint64) bool { return row[greenIdx] == 1 }, one, &dgP)
	natIdx := db.Supplier.Schema.Index("s_nationkey")
	sup := v.masked("supplier", mpc.Bob, db.Supplier, []Attr{"suppkey"},
		func(row []uint64) bool { return row[natIdx] == nation }, one, &dgS)
	qtyIdx := db.Lineitem.Schema.Index("quantity")
	liV := v.masked("lineitem", mpc.Alice, db.Lineitem, []Attr{"partkey", "suppkey", "orderkey"}, nil, volume(db.Lineitem), &dgL1)
	liQ := v.masked("lineitem", mpc.Alice, db.Lineitem, []Attr{"partkey", "suppkey", "orderkey"}, nil,
		func(row []uint64) uint64 { return row[qtyIdx] * 100 }, &dgL2)
	costIdx := db.PartSupp.Schema.Index("supplycost")
	psOne := v.masked("partsupp", mpc.Bob, db.PartSupp, []Attr{"partkey", "suppkey"}, nil, one, &dgPS1)
	psCost := v.masked("partsupp", mpc.Bob, db.PartSupp, []Attr{"partkey", "suppkey"}, nil,
		func(row []uint64) uint64 { return row[costIdx] }, &dgPS2)
	ordCols := []Attr{"orderkey", "o_year"}
	ord := v.input("orders", mpc.Bob, relation.MustSchema(ordCols...), db.Orders.Len(), func() *relation.Relation {
		dateIdx := db.Orders.Schema.Index("orderdate")
		ordBase := relation.New(relation.MustSchema(ordCols...))
		for i := range db.Orders.Tuples {
			row := db.Orders.Tuples[i]
			year := uint64(tpch.Epoch.AddDate(0, 0, int(row[dateIdx])).Year())
			ordBase.Append([]uint64{row[0], year}, 1)
		}
		return maskProject(ordBase, ordCols, nil, one, &dgO)
	})
	query := func(li, ps core.Input) *core.Query {
		return &core.Query{
			Inputs: []core.Input{part, sup, li, ps, ord},
			Output: yearOutput,
		}
	}
	return query(liV, psOne), query(liQ, psCost)
}

// q9Nation runs one nation's two queries to shares and reveals their
// difference.
func q9Nation(p *mpc.Party, db *tpch.DB, nation uint64, opts core.Options) (*relation.Relation, error) {
	revQ, costQ := q9Queries(db, nation, viewOf(p.Role))
	rev, _, err := core.RunShared(context.Background(), p, revQ, opts)
	if err != nil {
		return nil, fmt.Errorf("revenue: %w", err)
	}
	cost, _, err := core.RunShared(context.Background(), p, costQ, opts)
	if err != nil {
		return nil, fmt.Errorf("cost: %w", err)
	}
	diff, err := rev.Subtract(p.Ring, cost)
	if err != nil {
		return nil, err
	}
	return diff.Reveal(p, revQ.Output)
}
