package queries

import (
	"fmt"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/tpch"
)

// PlanFor returns a representative core.Query for a spec — the shape of
// its (first) secure execution, with public schemas, owners and sizes
// but no data attached. It feeds core.ExplainOpts: plans and cost estimates
// depend only on public parameters. Composed queries (Q8, Q9, Q14) run
// the returned query shape multiple times; the per-run estimate applies
// to each pass.
func PlanFor(spec Spec, db *tpch.DB) (*core.Query, error) {
	in := func(name string, owner mpc.Role, rel *relation.Relation) core.Input {
		return core.Input{Name: name, Owner: owner, Schema: rel.Schema, N: rel.Len()}
	}
	switch spec.Name {
	case "Q3":
		cust, ord, li := q3Relations(db)
		return &core.Query{Inputs: []core.Input{
			in("customer", mpc.Alice, cust), in("orders", mpc.Bob, ord), in("lineitem", mpc.Alice, li),
		}, Output: q3Output}, nil
	case "Q10":
		cust, ord, li := q10Relations(db)
		return &core.Query{Inputs: []core.Input{
			in("customer", mpc.Alice, cust), in("orders", mpc.Bob, ord), in("lineitem", mpc.Alice, li),
		}, Output: q10Output}, nil
	case "Q18":
		cust, ord, li, sub := q18Relations(db, Q18Threshold)
		return &core.Query{Inputs: []core.Input{
			in("customer", mpc.Bob, cust), in("orders", mpc.Alice, ord),
			in("lineitem", mpc.Bob, li), in("subquery", mpc.Bob, sub),
		}, Output: q18Output}, nil
	case "Q8":
		part, supNum, _, li, ord, cust := q8Relations(db)
		return &core.Query{Inputs: []core.Input{
			in("part", mpc.Alice, part), in("supplier", mpc.Bob, supNum),
			in("lineitem", mpc.Alice, li), in("orders", mpc.Bob, ord),
			in("customer", mpc.Alice, cust),
		}, Output: q8Output}, nil
	case "Q9":
		part, sup, liV, _, psOne, _, ord := q9Relations(db, 0)
		return &core.Query{Inputs: []core.Input{
			in("part", mpc.Alice, part), in("supplier", mpc.Bob, sup),
			in("lineitem", mpc.Alice, liV), in("partsupp", mpc.Bob, psOne),
			in("orders", mpc.Bob, ord),
		}, Output: q9Output}, nil
	case "Q1":
		li := q1Relations(db)
		return &core.Query{Inputs: []core.Input{in("lineitem", mpc.Bob, li)}, Output: q1Output}, nil
	case "Q12":
		ord, li := q12Relations(db)
		return &core.Query{Inputs: []core.Input{
			in("orders", mpc.Alice, ord), in("lineitem", mpc.Bob, li),
		}, Output: q12Output}, nil
	case "Q14":
		partNum, _, li := q14Relations(db)
		return &core.Query{Inputs: []core.Input{
			in("part", mpc.Alice, partNum), in("lineitem", mpc.Bob, li),
		}, Output: nil}, nil
	default:
		return nil, fmt.Errorf("queries: no plan shape registered for %q", spec.Name)
	}
}
