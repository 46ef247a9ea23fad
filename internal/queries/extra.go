package queries

import (
	"context"
	"fmt"

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

// Extra returns the additional queries.
func Extra() []Spec {
	return []Spec{Q1(), Q12(), Q14()}
}

// ---------------------------------------------------------------------
// Query 1: pricing summary (single relation, no join)
// ---------------------------------------------------------------------

var q1Date = tpch.Day(1998, 8, 1) // shipdate <= maxdate - interval

func q1Relations(db *tpch.DB) *relation.Relation {
	var dg relation.DummyGen
	shipIdx := db.Lineitem.Schema.Index("shipdate")
	return maskProject(db.Lineitem, []Attr{"returnflag"},
		func(row []uint64) bool { return row[shipIdx] <= q1Date }, volume(db.Lineitem), &dg)
}

var q1Output = []Attr{"returnflag"}

// Q1 is (a simplified) TPC-H Query 1: revenue grouped by return flag
// over lineitem alone. With a single relation the protocol reduces to
// one oblivious aggregation plus the reveal — the engine's base case.
func Q1() Spec {
	return Spec{
		Name:        "Q1",
		Figure:      0,
		Description: "pricing summary: revenue by return flag over lineitem alone (no join)",
		SecureOpts: func(p *mpc.Party, db *tpch.DB, opts core.Options) (*relation.Relation, error) {
			li := q1Relations(db)
			q := &core.Query{
				Inputs: []core.Input{inputFor(p, "lineitem", mpc.Bob, li)},
				Output: q1Output,
			}
			rel, _, err := core.Run(context.Background(), p, q, opts)
			return rel, err
		},
		Plain: func(db *tpch.DB, bits int) (*relation.Relation, error) {
			li := q1Relations(db)
			return plainRun([]*relation.Relation{li}, []string{"lineitem"}, q1Output, bits)
		},
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(4*db.Lineitem.Len())
		},
	}
}

// ---------------------------------------------------------------------
// Query 12: shipping modes (two relations, count aggregate)
// ---------------------------------------------------------------------

var (
	q12DateLo = tpch.Day(1994, 1, 1)
	q12DateHi = tpch.Day(1995, 1, 1)
)

func q12Relations(db *tpch.DB) (ord, li *relation.Relation) {
	var dgO, dgL relation.DummyGen
	ord = maskProject(db.Orders, []Attr{"orderkey"}, nil, one, &dgO)
	shipIdx := db.Lineitem.Schema.Index("shipdate")
	li = maskProject(db.Lineitem, []Attr{"orderkey", "shipmode"},
		func(row []uint64) bool { return row[shipIdx] >= q12DateLo && row[shipIdx] < q12DateHi },
		one, &dgL)
	return
}

var q12Output = []Attr{"shipmode"}

// Q12 is (a simplified) TPC-H Query 12: line counts by ship mode over
// orders ⋈ lineitem with a private ship-date window.
func Q12() Spec {
	return Spec{
		Name:        "Q12",
		Figure:      0,
		Description: "shipping modes: counts by shipmode over orders ⋈ lineitem",
		SecureOpts: func(p *mpc.Party, db *tpch.DB, opts core.Options) (*relation.Relation, error) {
			ord, li := q12Relations(db)
			q := &core.Query{
				Inputs: []core.Input{
					inputFor(p, "orders", mpc.Alice, ord),
					inputFor(p, "lineitem", mpc.Bob, li),
				},
				Output: q12Output,
			}
			rel, _, err := core.Run(context.Background(), p, q, opts)
			return rel, err
		},
		Plain: func(db *tpch.DB, bits int) (*relation.Relation, error) {
			ord, li := q12Relations(db)
			return plainRun([]*relation.Relation{ord, li},
				[]string{"orders", "lineitem"}, q12Output, bits)
		},
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(1*db.Orders.Len()+3*db.Lineitem.Len())
		},
	}
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

func q14Relations(db *tpch.DB) (partNum, partDen, li *relation.Relation) {
	var dgP1, dgP2, dgL relation.DummyGen
	typeIdx := db.Part.Schema.Index("p_type")
	partNum = maskProject(db.Part, []Attr{"partkey"}, nil,
		func(row []uint64) uint64 {
			if row[typeIdx] < promoTypeMax {
				return 1
			}
			return 0
		}, &dgP1)
	partDen = maskProject(db.Part, []Attr{"partkey"}, nil, one, &dgP2)
	shipIdx := db.Lineitem.Schema.Index("shipdate")
	li = maskProject(db.Lineitem, []Attr{"partkey"},
		func(row []uint64) bool { return row[shipIdx] >= q14DateLo && row[shipIdx] < q14DateHi },
		volume(db.Lineitem), &dgL)
	return
}

// Q14 is TPC-H Query 14: the share of revenue from promotional parts in
// one month — sum(promo ? volume : 0) * 100 / sum(volume), composed as
// two shared runs plus the ratio circuit (§7), like the paper's Q8.
func Q14() Spec {
	return Spec{
		Name:        "Q14",
		Figure:      0,
		Description: "promotion effect: promo revenue share over part ⋈ lineitem",
		SecureOpts: func(p *mpc.Party, db *tpch.DB, opts core.Options) (*relation.Relation, error) {
			partNum, partDen, li := q14Relations(db)
			build := func(part *relation.Relation) *core.Query {
				return &core.Query{
					Inputs: []core.Input{
						inputFor(p, "part", mpc.Alice, part),
						inputFor(p, "lineitem", mpc.Bob, li),
					},
					Output: nil, // single grand aggregate
				}
			}
			num, _, err := core.RunShared(context.Background(), p, build(partNum), opts)
			if err != nil {
				return nil, fmt.Errorf("q14 numerator: %w", err)
			}
			den, _, err := core.RunShared(context.Background(), p, build(partDen), opts)
			if err != nil {
				return nil, fmt.Errorf("q14 denominator: %w", err)
			}
			return core.RevealRatio(p, num, den, 100)
		},
		Plain: func(db *tpch.DB, bits int) (*relation.Relation, error) {
			partNum, partDen, li := q14Relations(db)
			names := []string{"part", "lineitem"}
			num, err := plainRun([]*relation.Relation{partNum, li}, names, nil, bits)
			if err != nil {
				return nil, err
			}
			den, err := plainRun([]*relation.Relation{partDen, li}, names, nil, bits)
			if err != nil {
				return nil, err
			}
			out := relation.New(relation.Schema{})
			if den.Len() == 0 || den.Annot[0] == 0 {
				return out, nil
			}
			var n uint64
			if num.Len() > 0 {
				n = num.Annot[0]
			}
			out.Append([]uint64{}, n*100/den.Annot[0])
			return out, nil
		},
		EffectiveBytes: func(db *tpch.DB) int64 {
			return 4 * int64(2*db.Part.Len()+4*db.Lineitem.Len())
		},
	}
}
