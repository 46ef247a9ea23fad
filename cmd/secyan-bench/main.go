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
	"secyan/internal/core"
	"secyan/internal/obs"
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
	phases := flag.Bool("phases", false, "after each figure, print the per-phase communication/round/time breakdown of the measured secure runs")
	precompute := flag.Bool("precompute", false, "run the plan-driven offline phase (OT pools, ahead-of-time garbling) before each measured secure run and report the offline/online split")
	mem := flag.Bool("mem", false, "after each figure, print the memory profile of the measured secure runs (sampled peak heap, live-heap delta, bytes allocated)")
	jsonOut := flag.String("json", "", "write all figure points as JSON to this file (\"-\" for stdout)")
	backendName := flag.String("backend", "auto", "secure-join backend for the measured secure runs: auto (cost-based per step), psi-oep or gc")
	backends := flag.Bool("backends", false, "after each of the Q3/Q10/Q18 figures, measure the chosen-vs-forced backend deltas (one secure run per backend at the largest real scale) and include them in the JSON output")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /debug/step on this address while benchmarking (enables metrics collection)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the measured secure runs to this file")
	sessions := flag.Int("sessions", 0, "instead of the figures, measure session-layer throughput: run this many copies of the query serially vs concurrently multiplexed over one TCP connection (uses the first -scales entry; -fig selects the query, default Q3)")
	logJSON := flag.Bool("log-json", false, "emit the structured observability event log (query lifecycle, backend auctions, precompute hits) as JSON lines on stderr")
	flightN := flag.Int("flight", 0, "flight-recorder capacity for the measured secure runs (0 = default 128); records are attached to -json points either way")
	flag.Parse()

	if *logJSON {
		obs.Events().SetJSONSink(os.Stderr)
	}
	if *flightN > 0 {
		obs.Flight().SetCapacity(*flightN)
	}
	if *debugAddr != "" {
		addr, _, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secyan-bench: debug server: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("debug server: http://%s/metrics\n", addr)
	}

	var scales []float64
	for _, s := range strings.Split(*scalesFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secyan-bench: bad scale %q: %v\n", s, err)
			os.Exit(2)
		}
		scales = append(scales, v)
	}
	backend, err := core.ParseBackend(*backendName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secyan-bench: %v\n", err)
		os.Exit(2)
	}
	opt := benchmark.Options{
		ScalesMB:    scales,
		SecureCapMB: *secureCap,
		Ring:        share.Ring{Bits: *ell},
		Seed:        *seed,
		Precompute:  *precompute,
		Backend:     backend,
		// JSON output gains the per-query flight records: per-phase,
		// per-backend attribution for every measured secure point.
		Flight: *jsonOut != "",
	}
	if *traceOut != "" {
		opt.Tracer = obs.NewTracer()
	}

	specs := []queries.Spec{queries.Q3(), queries.Q10(), queries.Q18(), queries.Q8(), queries.Q9(*q9nations)}

	if *sessions > 0 {
		ran := false
		for _, spec := range specs {
			// Sessions mode defaults to the cheapest query (Q3) unless a
			// figure is selected explicitly.
			if *fig == 0 && spec.Name != "Q3" {
				continue
			}
			if *fig != 0 && spec.Figure != *fig {
				continue
			}
			ran = true
			if _, err := benchmark.RunSessions(spec, *sessions, opt, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "secyan-bench: %s: %v\n", spec.Name, err)
				os.Exit(1)
			}
		}
		if !ran {
			fmt.Fprintf(os.Stderr, "secyan-bench: no figure %d (expected 2-6)\n", *fig)
			os.Exit(2)
		}
		return
	}

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
		if *backends {
			switch spec.Name {
			case "Q3", "Q10", "Q18":
				bpts, err := benchmark.RunBackendComparison(spec, opt, os.Stdout)
				if err != nil {
					fmt.Fprintf(os.Stderr, "secyan-bench: %s: %v\n", spec.Name, err)
					os.Exit(1)
				}
				allPoints = append(allPoints, bpts...)
			}
		}
		if *phases {
			fmt.Println()
			benchmark.PrintPhases(os.Stdout, points)
		}
		if *mem {
			fmt.Println()
			benchmark.PrintMemory(os.Stdout, points)
		}
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
	if opt.Tracer != nil {
		if err := writeChrome(opt.Tracer, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "secyan-bench: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace written to %s\n", *traceOut)
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

// writeChrome dumps the benchmark tracer's spans as Chrome trace JSON.
func writeChrome(tracer *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
