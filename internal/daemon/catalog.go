package daemon

import (
	"context"
	"fmt"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/queries"
	"secyan/internal/relation"
	"secyan/internal/tpch"
)

// The daemon serves *named* queries from a catalog rather than
// accepting query ASTs over the wire: both parties must already hold
// structurally identical query descriptions (the protocol's standing
// requirement), so the name — plus the per-request knobs — is the whole
// agreement. The daemon prices admission and warms precompute from the
// catalog's shape; each side attaches its own relations.

// Runner is one catalog entry: one party's half of a named query.
type Runner struct {
	// Shape returns the public query shape (schemas, owners, sizes — no
	// relations attached) used for admission pricing and precompute
	// warming. It must agree between the two parties.
	Shape func() (*core.Query, error)
	// Run executes this party's half on p. Alice receives the revealed
	// result rows; Bob receives nil.
	Run func(ctx context.Context, p *mpc.Party, opts core.Options) (*relation.Relation, error)
}

// Catalog maps query names to runners. Both endpoints need catalogs
// with matching shapes for the names they use.
type Catalog map[string]Runner

// RunnerForQuery adapts a concrete core.Query — with this party's
// relations attached — into a catalog entry.
func RunnerForQuery(q *core.Query) Runner {
	shape := &core.Query{Output: q.Output, NoLocalOptimizations: q.NoLocalOptimizations}
	for _, in := range q.Inputs {
		in.Rel = nil
		shape.Inputs = append(shape.Inputs, in)
	}
	return Runner{
		Shape: func() (*core.Query, error) { return shape, nil },
		Run: func(ctx context.Context, p *mpc.Party, opts core.Options) (*relation.Relation, error) {
			rel, _, err := core.Run(ctx, p, q, opts)
			return rel, err
		},
	}
}

// TPCHCatalog serves the paper's TPC-H queries from db. Both endpoints
// must generate db with the same scale and seed — the daemon deployment
// analogue of the benchmark's shared data convention.
func TPCHCatalog(db *tpch.DB) Catalog {
	cat := Catalog{}
	for _, spec := range queries.All() {
		spec := spec
		cat[spec.Name] = Runner{
			Shape: func() (*core.Query, error) { return queries.PlanFor(spec, db) },
			Run: func(ctx context.Context, p *mpc.Party, opts core.Options) (*relation.Relation, error) {
				pp, release := p.WithContext(ctx)
				defer release()
				return spec.SecureOpts(pp, db, opts)
			},
		}
	}
	return cat
}

// shapeDigest compiles the runner's shape under opts and returns the
// plan, its shape digest and estimated total communication — the
// admission cost the scheduler charges.
func shapeDigest(r Runner, ringBits int, opts core.Options) (*core.Query, *core.Plan, error) {
	shape, err := r.Shape()
	if err != nil {
		return nil, nil, fmt.Errorf("secyand: catalog shape: %w", err)
	}
	plan, err := core.ExplainOpts(shape, ringBits, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("secyand: catalog plan: %w", err)
	}
	return shape, plan, nil
}
