// Package benchmark regenerates the evaluation figures of the paper
// (Figures 2–6, §8.3): for each TPC-H query, the running time and
// communication cost of three methods over datasets of increasing size —
//
//   - non-private: the plaintext Yannakakis engine (standing in for
//     MySQL); its communication cost is the input size, exactly as in
//     the paper;
//   - secure Yannakakis: the full 2PC protocol, measured over the
//     instrumented transport;
//   - garbled circuit: the Cartesian-product baseline, calibrated by one
//     small real execution and extrapolated from its closed-form circuit
//     size (the paper does the same for all but its smallest dataset).
//
// Secure runs beyond a configurable scale cap are linearly extrapolated
// from the largest measured scale — legitimate because the protocol's
// cost is provably linear in the input size — and marked as such.
//
// The package draws figures and nothing else. Per-phase, per-kernel,
// memory, precompute and session measurements are bench/ workloads and
// probes, and cmd/secyan flags.
package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"secyan/internal/core"
	"secyan/internal/gcbaseline"
	"secyan/internal/mpc"
	"secyan/internal/queries"
	"secyan/internal/relation"
	"secyan/internal/share"
	"secyan/internal/tpch"
)

// Method identifies one line of a figure.
type Method string

// The three compared methods.
const (
	MethodPlain  Method = "non-private"
	MethodSecure Method = "secure-yannakakis"
	MethodGC     Method = "garbled-circuit"
)

// Point is one figure data point. The json tags define the schema of
// WriteJSON, the machine-readable form of a figure.
type Point struct {
	Query          string  `json:"query"`
	ScaleMB        float64 `json:"scale_mb"`
	EffectiveBytes int64   `json:"effective_bytes"`
	Method         Method  `json:"method"`
	Seconds        float64 `json:"seconds"`
	Bytes          float64 `json:"bytes"`
	Extrapolated   bool    `json:"extrapolated,omitempty"`
	OutputRows     int     `json:"output_rows,omitempty"`
}

// WriteJSON emits figure points as an indented JSON array — the
// machine-readable companion of PrintFigure for downstream plotting.
func WriteJSON(w io.Writer, points []Point) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(points)
}

// Options configures a figure run.
type Options struct {
	// ScalesMB lists dataset sizes; the paper uses 1, 3, 10, 33, 100.
	ScalesMB []float64
	// SecureCapMB is the largest scale at which the secure protocol is
	// executed for real; larger scales are extrapolated linearly.
	SecureCapMB float64
	// Ring is the annotation ring (defaults to ℓ=32).
	Ring share.Ring
	// Seed for data generation.
	Seed int64
}

// queryRelationSizes returns the masked relation cardinalities feeding
// the garbled-circuit baseline's Cartesian product for each query.
func queryRelationSizes(spec queries.Spec, db *tpch.DB) []int {
	switch spec.Name {
	case "Q3", "Q10":
		return []int{db.Customer.Len(), db.Orders.Len(), db.Lineitem.Len()}
	case "Q18":
		return []int{db.Customer.Len(), db.Orders.Len(), db.Lineitem.Len(), db.Lineitem.Len()}
	case "Q8":
		return []int{db.Part.Len(), db.Supplier.Len(), db.Lineitem.Len(), db.Orders.Len(), db.Customer.Len()}
	case "Q9":
		return []int{db.Part.Len(), db.Supplier.Len(), db.Lineitem.Len(), db.PartSupp.Len(), db.Orders.Len()}
	default:
		return []int{db.TotalRows()}
	}
}

// RunFigure produces the data points of one figure and, if w is non-nil,
// prints them as the two panels the paper shows (running time and
// communication). The secure protocol runs in-process over the
// instrumented transport, so its communication numbers are measured, not
// modeled.
func RunFigure(spec queries.Spec, opt Options, w io.Writer) ([]Point, error) {
	opt.Ring = opt.Ring.OrDefault()
	var points []Point
	var lastSecure *Point

	// One GC calibration for all scales.
	cal, err := calibrateGC(opt.Ring)
	if err != nil {
		return nil, fmt.Errorf("benchmark: GC calibration: %w", err)
	}

	for _, scale := range opt.ScalesMB {
		db := tpch.Generate(tpch.Config{ScaleMB: scale, Seed: opt.Seed})
		eff := spec.EffectiveBytes(db)

		// Non-private baseline.
		start := time.Now()
		plainRes, err := spec.Plain(db, opt.Ring.Bits)
		if err != nil {
			return nil, fmt.Errorf("benchmark: %s plain at %gMB: %w", spec.Name, scale, err)
		}
		points = append(points, Point{
			Query: spec.Name, ScaleMB: scale, EffectiveBytes: eff, Method: MethodPlain,
			Seconds: time.Since(start).Seconds(), Bytes: float64(eff),
			OutputRows: plainRes.Len(),
		})

		// Secure Yannakakis: measured up to the cap, extrapolated after.
		if scale <= opt.SecureCapMB {
			secs, bytes, rows, err := runSecure(spec, db, opt.Ring)
			if err != nil {
				return nil, fmt.Errorf("benchmark: %s secure at %gMB: %w", spec.Name, scale, err)
			}
			pt := Point{
				Query: spec.Name, ScaleMB: scale, EffectiveBytes: eff, Method: MethodSecure,
				Seconds: secs, Bytes: float64(bytes), OutputRows: rows,
			}
			points = append(points, pt)
			lastSecure = &pt
		} else if lastSecure != nil {
			factor := float64(eff) / float64(lastSecure.EffectiveBytes)
			points = append(points, Point{
				Query: spec.Name, ScaleMB: scale, EffectiveBytes: eff, Method: MethodSecure,
				Seconds: lastSecure.Seconds * factor, Bytes: lastSecure.Bytes * factor,
				Extrapolated: true,
			})
		}

		// Garbled-circuit baseline: always extrapolated from calibration
		// (a real run is possible only for a few hundred tuples total).
		sizes := queryRelationSizes(spec, db)
		gcSpec := gcbaseline.SpecForSizes(opt.Ring.Bits, sizes...)
		cost := gcbaseline.Estimate(gcSpec, cal)
		points = append(points, Point{
			Query: spec.Name, ScaleMB: scale, EffectiveBytes: eff, Method: MethodGC,
			Seconds: cost.Seconds, Bytes: cost.Bytes, Extrapolated: true,
		})
	}
	if w != nil {
		PrintFigure(w, spec, points)
	}
	return points, nil
}

// calibrateGC measures per-gate constants with one small real execution.
func calibrateGC(ring share.Ring) (gcbaseline.Calibration, error) {
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	cal, _, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (gcbaseline.Calibration, error) { return gcbaseline.Calibrate(p) },
		func(p *mpc.Party) (gcbaseline.Calibration, error) { return gcbaseline.Calibrate(p) },
	)
	return cal, err
}

// runSecure executes the full protocol once with default options
// and returns its wall time, Alice's total traffic and the output rows.
func runSecure(spec queries.Spec, db *tpch.DB, ring share.Ring) (seconds float64, bytes int64, rows int, err error) {
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	// Start from a settled heap so one run's garbage (tens of MB of
	// garbled tables) is not collected on a later run's clock.
	runtime.GC()
	start := time.Now()
	run := func(p *mpc.Party) (*relation.Relation, error) {
		return spec.SecureOpts(p, db, core.Options{})
	}
	res, _, err := mpc.Run2PC(alice, bob, run, run)
	if err != nil {
		return 0, 0, 0, err
	}
	return time.Since(start).Seconds(), alice.Conn.Stats().TotalBytes(), res.Len(), nil
}

// PrintFigure renders the two panels of a paper figure as text tables.
func PrintFigure(w io.Writer, spec queries.Spec, points []Point) {
	fmt.Fprintf(w, "\nFigure %d — %s: %s\n", spec.Figure, spec.Name, spec.Description)
	fmt.Fprintf(w, "%-10s %-14s | %-22s %-22s %-22s\n", "scale", "effective", MethodPlain, MethodSecure, MethodGC)
	rows := map[float64]map[Method]Point{}
	var scales []float64
	for _, p := range points {
		if rows[p.ScaleMB] == nil {
			rows[p.ScaleMB] = map[Method]Point{}
			scales = append(scales, p.ScaleMB)
		}
		rows[p.ScaleMB][p.Method] = p
	}
	fmt.Fprintln(w, "running time (seconds; * = extrapolated)")
	for _, s := range scales {
		r := rows[s]
		fmt.Fprintf(w, "%-10s %-14s | %-22s %-22s %-22s\n",
			fmt.Sprintf("%gMB", s), humanBytes(float64(r[MethodPlain].EffectiveBytes)),
			humanSeconds(r[MethodPlain]), humanSeconds(r[MethodSecure]), humanSeconds(r[MethodGC]))
	}
	fmt.Fprintln(w, "communication (bytes; * = extrapolated)")
	for _, s := range scales {
		r := rows[s]
		fmt.Fprintf(w, "%-10s %-14s | %-22s %-22s %-22s\n",
			fmt.Sprintf("%gMB", s), humanBytes(float64(r[MethodPlain].EffectiveBytes)),
			humanB(r[MethodPlain]), humanB(r[MethodSecure]), humanB(r[MethodGC]))
	}
}

func humanSeconds(p Point) string {
	if p.Method == "" {
		return "-"
	}
	star := ""
	if p.Extrapolated {
		star = "*"
	}
	s := p.Seconds
	switch {
	case s >= 365*24*3600:
		return fmt.Sprintf("%.1f years%s", s/(365*24*3600), star)
	case s >= 24*3600:
		return fmt.Sprintf("%.1f days%s", s/(24*3600), star)
	case s >= 3600:
		return fmt.Sprintf("%.1f h%s", s/3600, star)
	case s >= 1:
		return fmt.Sprintf("%.2f s%s", s, star)
	default:
		return fmt.Sprintf("%.1f ms%s", s*1000, star)
	}
}

func humanB(p Point) string {
	if p.Method == "" {
		return "-"
	}
	star := ""
	if p.Extrapolated {
		star = "*"
	}
	return humanBytes(p.Bytes) + star
}

func humanBytes(b float64) string {
	units := []string{"B", "KB", "MB", "GB", "TB", "PB", "EB", "ZB"}
	i := 0
	for b >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	return fmt.Sprintf("%.1f %s", b, units[i])
}
