package core

import (
	"fmt"

	"secyan/internal/jointree"
	"secyan/internal/mpc"
	"secyan/internal/relation"
)

// Query description for the full secure Yannakakis protocol of paper
// §6.4: Reduce → Semijoin → Full Join over a free-connex join tree, with
// the single-node shortcut the paper uses for Q3 (§8.1). The control
// flow lives in the plan compiler (plan.go); execution in exec.go.

// Input describes one base relation of a query. The owner supplies Rel
// (tuples plus plaintext annotations); the other party supplies only the
// public Schema and N.
type Input struct {
	Name   string
	Owner  mpc.Role
	Schema relation.Schema
	N      int
	Rel    *relation.Relation // owner side only
}

// Query is a free-connex join-aggregate query over owned relations.
//
// A query is described once, with every relation attached; For gives
// each party the view it runs (its own relations only) and Shape the
// public part alone. Everything but Rel is public and the same in
// every view, as the protocol requires.
type Query struct {
	Inputs []Input
	Output []relation.Attr
	// NoLocalOptimizations disables the §6.5 fast paths (local
	// aggregation and plain-payload PSI while annotations are still
	// plaintext to their owner). Both parties must set it identically;
	// it exists for the ablation benchmarks.
	NoLocalOptimizations bool
}

// For returns role's view of q: a copy whose inputs keep Rel only where
// role is the Owner. q itself is left as it was.
func (q *Query) For(role mpc.Role) *Query {
	v := *q
	v.Inputs = make([]Input, len(q.Inputs))
	for i, in := range q.Inputs {
		if in.Owner != role {
			in.Rel = nil
		}
		v.Inputs[i] = in
	}
	return &v
}

// Shape returns q's public shape, no relation attached: what the planner,
// Explain and Precompute need, and all that both parties share.
func (q *Query) Shape() *Query {
	v := q.For(mpc.Alice)
	for i := range v.Inputs {
		v.Inputs[i].Rel = nil
	}
	return v
}

// Hypergraph derives the join hypergraph of the query.
func (q *Query) Hypergraph() *jointree.Hypergraph {
	h := &jointree.Hypergraph{}
	for _, in := range q.Inputs {
		h.Edges = append(h.Edges, jointree.Edge{Name: in.Name, Attrs: in.Schema.Attrs})
	}
	return h
}

// Validate checks the query description from one party's perspective.
func (q *Query) Validate(role mpc.Role) error {
	if len(q.Inputs) == 0 {
		return fmt.Errorf("core: query has no inputs")
	}
	for i, in := range q.Inputs {
		if in.Owner == role {
			if in.Rel == nil {
				return fmt.Errorf("input %d: owner must supply the relation: %w", i, &MissingRelationError{Input: in.Name})
			}
			if in.Rel.Len() != in.N {
				return fmt.Errorf("core: input %d (%s): N=%d but relation has %d tuples", i, in.Name, in.N, in.Rel.Len())
			}
		} else if in.Rel != nil {
			return fmt.Errorf("core: input %d (%s): non-owner must not hold the relation", i, in.Name)
		}
	}
	return nil
}

// reorder returns rel's rows and annotations with their columns in the
// order of attrs; the result's schema keeps attrs itself.
func reorder(rel *relation.Relation, attrs []relation.Attr) (*relation.Relation, error) {
	cols, err := rel.Schema.Positions(attrs)
	if err != nil {
		return nil, err
	}
	out := relation.NewCap(relation.MustSchema(attrs...), rel.Len())
	for i, t := range rel.Tuples {
		row := make([]uint64, len(cols))
		for c, cc := range cols {
			row[c] = t[cc]
		}
		out.Append(row, rel.Annot[i])
	}
	return out, nil
}
