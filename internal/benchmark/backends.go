package benchmark

import (
	"fmt"
	"io"

	"secyan/internal/core"
	"secyan/internal/queries"
	"secyan/internal/tpch"
)

// This file measures the cost-based backend selection (DESIGN.md §13)
// against each backend forced everywhere it applies: the chosen-vs-
// forced deltas the selection is supposed to win. One measured run per
// backend at the largest real scale; all runs of one query share the
// dataset, so Bytes differences are pure protocol differences.

// comparedBackends are the forced variants measured against the
// cost-based default (listed first as the empty BackendID).
var comparedBackends = []core.BackendID{
	"", core.BackendPSIOEP, core.BackendGC,
}

// RunBackendComparison executes spec once per backend — cost-based
// selection plus each forced backend — at the largest scale capped by
// SecureCapMB (falling back to the first scale) and returns one
// measured secure Point per run, Backend naming the forced variant
// (empty = chosen). If w is non-nil the deltas are printed against the
// cost-based run.
func RunBackendComparison(spec queries.Spec, opt Options, w io.Writer) ([]Point, error) {
	opt.Ring = opt.Ring.OrDefault()
	scale := opt.ScalesMB[0]
	for _, s := range opt.ScalesMB {
		if s <= opt.SecureCapMB && s > scale {
			scale = s
		}
	}
	db := tpch.Generate(tpch.Config{ScaleMB: scale, Seed: opt.Seed})
	eff := spec.EffectiveBytes(db)

	var points []Point
	for _, b := range comparedBackends {
		o := opt
		o.Backend = b
		pt, err := runSecure(spec, db, scale, o)
		if err != nil {
			return nil, fmt.Errorf("benchmark: %s backend %q at %gMB: %w", spec.Name, b, scale, err)
		}
		pt.ScaleMB = scale
		pt.EffectiveBytes = eff
		points = append(points, pt)
	}
	if w != nil {
		PrintBackendComparison(w, spec, points)
	}
	return points, nil
}

// PrintBackendComparison renders one comparison's points as a table of
// deltas against the cost-based run (the Backend == "" point).
func PrintBackendComparison(w io.Writer, spec queries.Spec, points []Point) {
	var base *Point
	for i := range points {
		if points[i].Backend == "" {
			base = &points[i]
			break
		}
	}
	if base == nil || len(points) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s at %gMB, chosen vs forced backends:\n", spec.Name, base.ScaleMB)
	fmt.Fprintf(w, "%-10s %14s %10s %12s %10s\n", "backend", "comm", "vs chosen", "time", "vs chosen")
	for _, p := range points {
		name := p.Backend
		if name == "" {
			name = "(chosen)"
		}
		fmt.Fprintf(w, "%-10s %14s %+9.1f%% %12s %+9.1f%%\n", name,
			humanBytes(p.Bytes), 100*(p.Bytes-base.Bytes)/base.Bytes,
			humanSeconds(p), 100*(p.Seconds-base.Seconds)/base.Seconds)
	}
}
