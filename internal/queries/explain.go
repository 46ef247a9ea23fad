package queries

import (
	"fmt"

	"secyan/internal/core"
	"secyan/internal/tpch"
)

// PlanFor returns a representative core.Query for a spec — the shape of
// its (first) secure execution, with public schemas, owners and sizes
// but no data attached. It feeds core.ExplainOpts: plans and cost estimates
// depend only on public parameters. Composed queries (Q8, Q9, Q14) run
// queries of the returned shape multiple times; the per-run estimate
// applies to each pass.
func PlanFor(spec Spec, db *tpch.DB) (*core.Query, error) {
	if spec.parts == nil {
		return nil, fmt.Errorf("queries: no query described for %q", spec.Name)
	}
	return spec.parts(db)[0].Shape(), nil
}
