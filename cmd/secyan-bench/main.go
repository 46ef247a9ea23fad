// Command secyan-bench regenerates the evaluation figures of the Secure
// Yannakakis paper (Figures 2-6): for each TPC-H query it prints the
// running time and communication of the non-private baseline, the secure
// Yannakakis protocol, and the garbled-circuit baseline across dataset
// scales.
//
// Usage:
//
//	secyan-bench -fig 2 -scales 0.05,0.15,0.5 -securecap 0.5
//	secyan-bench -fig 0          # all five figures
//	secyan-bench -fig 6 -q9nations 25   # the paper's full Q9
//
// Scales are dataset sizes in MB (the paper uses 1,3,10,33,100; those
// work too but the secure runs take correspondingly longer — cap them
// with -securecap and let the tool extrapolate the linear tail).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"secyan/internal/benchmark"
	"secyan/internal/queries"
	"secyan/internal/share"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (2-6), 0 for all")
	scalesFlag := flag.String("scales", "0.05,0.15,0.5", "comma-separated dataset sizes in MB")
	secureCap := flag.Float64("securecap", 0.5, "largest scale (MB) at which the secure protocol runs for real; larger scales are extrapolated")
	q9nations := flag.Int("q9nations", 2, "nations in the Q9 decomposition (paper: 25)")
	seed := flag.Int64("seed", 1, "data generation seed")
	ell := flag.Int("ell", 32, "annotation bit width (paper: 32)")
	jsonOut := flag.String("json", "", "write all figure points as JSON to this file (\"-\" for stdout)")
	flag.Parse()

	var scales []float64
	for _, s := range strings.Split(*scalesFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secyan-bench: bad scale %q: %v\n", s, err)
			os.Exit(2)
		}
		scales = append(scales, v)
	}
	opt := benchmark.Options{
		ScalesMB:    scales,
		SecureCapMB: *secureCap,
		Ring:        share.Ring{Bits: *ell},
		Seed:        *seed,
	}

	specs := []queries.Spec{queries.Q3(), queries.Q10(), queries.Q18(), queries.Q8(), queries.Q9(*q9nations)}
	ran := false
	var allPoints []benchmark.Point
	for _, spec := range specs {
		if *fig != 0 && spec.Figure != *fig {
			continue
		}
		ran = true
		points, err := benchmark.RunFigure(spec, opt, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secyan-bench: %s: %v\n", spec.Name, err)
			os.Exit(1)
		}
		allPoints = append(allPoints, points...)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "secyan-bench: no figure %d (expected 2-6)\n", *fig)
		os.Exit(2)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, allPoints); err != nil {
			fmt.Fprintf(os.Stderr, "secyan-bench: json: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeJSON emits the collected points to path ("-" = stdout).
func writeJSON(path string, points []benchmark.Point) error {
	if path == "-" {
		return benchmark.WriteJSON(os.Stdout, points)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := benchmark.WriteJSON(f, points); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
