package queries

import (
	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/tpch"
)

// This file adds free-connex TPC-H queries beyond the five the paper
// evaluates (their Spec.Figure is 0): Q1 (single-relation aggregation,
// the degenerate no-join case), Q12 (two-relation count), and Q14
// (promotion revenue ratio, another §7 composition). They broaden the
// engine's exercise surface and serve as extra correctness fixtures;
// they do not correspond to paper figures.

// The extra queries' Output lists, package variables as in queries.go.
var (
	q1Output  = []Attr{"returnflag"}
	q12Output = []Attr{"shipmode"}
)

// Extra returns the additional queries.
func Extra() []Spec {
	return []Spec{Q1(), Q12(), Q14()}
}

// ---------------------------------------------------------------------
// Query 1: pricing summary (single relation, no join)
// ---------------------------------------------------------------------

var q1Date = tpch.Day(1998, 8, 1) // shipdate <= maxdate - interval

func q1Query(db *tpch.DB, v view) *core.Query {
	var dg relation.DummyGen
	shipIdx := db.Lineitem.Schema.Index("shipdate")
	return &core.Query{
		Inputs: []core.Input{v.masked("lineitem", mpc.Bob, db.Lineitem, []Attr{"returnflag"},
			func(row []uint64) bool { return row[shipIdx] <= q1Date }, volume(db.Lineitem), &dg)},
		Output: q1Output,
	}
}

// Q1 is (a simplified) TPC-H Query 1: revenue grouped by return flag
// over lineitem alone. With a single relation the protocol reduces to
// one oblivious aggregation plus the reveal — the engine's base case.
func Q1() Spec {
	return single(Spec{
		Name:        "Q1",
		Figure:      0,
		Description: "pricing summary: revenue by return flag over lineitem alone (no join)",
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(4*db.Lineitem.Len())
		},
	}, q1Query)
}

// ---------------------------------------------------------------------
// Query 12: shipping modes (two relations, count aggregate)
// ---------------------------------------------------------------------

var (
	q12DateLo = tpch.Day(1994, 1, 1)
	q12DateHi = tpch.Day(1995, 1, 1)
)

func q12Query(db *tpch.DB, v view) *core.Query {
	var dgO, dgL relation.DummyGen
	shipIdx := db.Lineitem.Schema.Index("shipdate")
	return &core.Query{
		Inputs: []core.Input{
			v.masked("orders", mpc.Alice, db.Orders, []Attr{"orderkey"}, nil, one, &dgO),
			v.masked("lineitem", mpc.Bob, db.Lineitem, []Attr{"orderkey", "shipmode"},
				func(row []uint64) bool { return row[shipIdx] >= q12DateLo && row[shipIdx] < q12DateHi },
				one, &dgL),
		},
		Output: q12Output,
	}
}

// Q12 is (a simplified) TPC-H Query 12: line counts by ship mode over
// orders ⋈ lineitem with a private ship-date window.
func Q12() Spec {
	return single(Spec{
		Name:        "Q12",
		Figure:      0,
		Description: "shipping modes: counts by shipmode over orders ⋈ lineitem",
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(1*db.Orders.Len()+3*db.Lineitem.Len())
		},
	}, q12Query)
}

// ---------------------------------------------------------------------
// Query 14: promotion effect (ratio composition like Q8)
// ---------------------------------------------------------------------

var (
	q14DateLo = tpch.Day(1995, 9, 1)
	q14DateHi = tpch.Day(1995, 10, 1)
	// promoTypeMax: TPC-H p_type strings starting with PROMO are 25 of
	// the 150 type codes.
	promoTypeMax = uint64(25)
)

// q14Queries describes Q14's two queries over part ⋈ lineitem; they
// differ in the part annotation: Ind(promo) for the numerator, 1 for the
// denominator. Both aggregate to a single grand total.
func q14Queries(db *tpch.DB, v view) (num, den *core.Query) {
	var dgP1, dgP2, dgL relation.DummyGen
	typeIdx := db.Part.Schema.Index("p_type")
	partNum := v.masked("part", mpc.Alice, db.Part, []Attr{"partkey"}, nil,
		func(row []uint64) uint64 {
			if row[typeIdx] < promoTypeMax {
				return 1
			}
			return 0
		}, &dgP1)
	partDen := v.masked("part", mpc.Alice, db.Part, []Attr{"partkey"}, nil, one, &dgP2)
	shipIdx := db.Lineitem.Schema.Index("shipdate")
	li := v.masked("lineitem", mpc.Bob, db.Lineitem, []Attr{"partkey"},
		func(row []uint64) bool { return row[shipIdx] >= q14DateLo && row[shipIdx] < q14DateHi },
		volume(db.Lineitem), &dgL)
	query := func(part core.Input) *core.Query {
		return &core.Query{Inputs: []core.Input{part, li}}
	}
	return query(partNum), query(partDen)
}

// Q14 is TPC-H Query 14: the share of revenue from promotional parts in
// one month — sum(promo ? volume : 0) * 100 / sum(volume), composed as
// two shared runs plus the ratio circuit (§7), like the paper's Q8.
func Q14() Spec {
	return ratio(Spec{
		Name:        "Q14",
		Figure:      0,
		Description: "promotion effect: promo revenue share over part ⋈ lineitem",
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(2*db.Part.Len()+4*db.Lineitem.Len())
		},
	}, 100, q14Queries)
}
