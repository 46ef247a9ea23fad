// Package benchmark regenerates the evaluation figures of the paper
// (Figures 2–6, §8.3): for each TPC-H query, the running time and
// communication cost of three methods over datasets of increasing size —
//
//   - non-private: the plaintext Yannakakis engine (standing in for
//     MySQL); its communication cost is the input size, exactly as in
//     the paper;
//   - secure Yannakakis: the full 2PC protocol, measured over the
//     instrumented transport;
//   - garbled circuit: the Cartesian-product baseline, executed for real
//     when tiny and extrapolated from its closed-form circuit size
//     beyond (the paper does the same for all but its smallest dataset).
//
// Secure runs beyond a configurable scale cap are linearly extrapolated
// from the largest measured scale — legitimate because the protocol's
// cost is provably linear in the input size — and marked as such.
package benchmark

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"secyan/internal/core"
	"secyan/internal/gc"
	"secyan/internal/gcbaseline"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/ot"
	"secyan/internal/psi"
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
	// OfflineSeconds, OnlineSeconds and OfflineBytes split a measured
	// secure run into its precomputable and latency-critical parts when
	// Options.Precompute is set: offline covers base OTs, random-OT pool
	// fills and ahead-of-time garbling; online is everything the querying
	// parties must wait for. Seconds and Bytes always cover both phases.
	OfflineSeconds float64 `json:"offline_seconds,omitempty"`
	OnlineSeconds  float64 `json:"online_seconds,omitempty"`
	OfflineBytes   float64 `json:"offline_bytes,omitempty"`
	// HeapAllocDeltaBytes and TotalAllocDeltaBytes capture the Go
	// allocator's view of a measured run: live-heap growth (negative when
	// a collection ran mid-measurement) and cumulative bytes allocated.
	// Zero for extrapolated points.
	HeapAllocDeltaBytes  int64 `json:"heap_alloc_delta_bytes,omitempty"`
	TotalAllocDeltaBytes int64 `json:"total_alloc_delta_bytes,omitempty"`
	// PeakHeapBytes is the largest live heap sampled during a measured
	// secure run — the memory ceiling the chunk size is meant to bound.
	// Zero for extrapolated points and other methods.
	PeakHeapBytes int64 `json:"peak_heap_bytes,omitempty"`
	// Phases breaks the measured secure run down by protocol phase, in
	// execution order; nil for extrapolated points and other methods.
	Phases []PhaseCost `json:"phases,omitempty"`
	// Backend names the secure-join backend of a measured secure run:
	// empty for cost-based per-step selection (the default), else the
	// forced core.BackendID. RunBackendComparison fills it.
	Backend string `json:"backend,omitempty"`
	// Flight holds both parties' flight-recorder records of the
	// measured secure run (newest first: Bob then Alice, or the
	// composed sub-runs of Q8/Q9) when Options.Flight is set — the
	// per-query, per-phase, per-backend attribution of the point.
	Flight []obs.QueryRecord `json:"flight,omitempty"`
	// Kernels reports the aggregate crypto-kernel throughputs of the
	// measured secure run (both in-process parties combined), differenced
	// from the cumulative obs counters around the run. Present only when
	// Options.Flight is set and the corresponding kernel actually ran.
	Kernels *KernelRates `json:"kernels,omitempty"`
}

// KernelRates are the crypto-kernel throughputs of one measured secure
// run: total units processed divided by total in-kernel time, summed over
// both parties. They track the fixed-key AES hash adoption — OT-extension
// pad derivation, half-gates garbling/evaluation and PSI bin handling all
// bottleneck on these kernels.
type KernelRates struct {
	OTExtPerSec   int64 `json:"otext_ots_per_sec,omitempty"`
	GarblePerSec  int64 `json:"gc_garble_gates_per_sec,omitempty"`
	EvalPerSec    int64 `json:"gc_eval_gates_per_sec,omitempty"`
	PSIBinsPerSec int64 `json:"psi_bins_per_sec,omitempty"`
}

// kernelTotals is one snapshot of the cumulative kernel aggregates.
type kernelTotals struct {
	ots, otNs   int64
	gg, ggNs    int64
	ge, geNs    int64
	bins, binNs int64
}

func snapshotKernels() (k kernelTotals) {
	k.ots, k.otNs = ot.ExtKernelTotals()
	k.gg, k.ggNs, k.ge, k.geNs = gc.KernelTotals()
	k.bins, k.binNs = psi.KernelTotals()
	return k
}

// kernelRate converts a (units, nanoseconds) delta to units/second.
func kernelRate(n, ns int64) int64 {
	if ns <= 0 {
		return 0
	}
	return int64(float64(n) * 1e9 / float64(ns))
}

func kernelsBetween(before, after kernelTotals) *KernelRates {
	k := KernelRates{
		OTExtPerSec:   kernelRate(after.ots-before.ots, after.otNs-before.otNs),
		GarblePerSec:  kernelRate(after.gg-before.gg, after.ggNs-before.ggNs),
		EvalPerSec:    kernelRate(after.ge-before.ge, after.geNs-before.geNs),
		PSIBinsPerSec: kernelRate(after.bins-before.bins, after.binNs-before.binNs),
	}
	if k == (KernelRates{}) {
		return nil
	}
	return &k
}

// PhaseCost aggregates the per-step trace of a secure run over one
// protocol phase (setup, input, reduce, semijoin, join, ...).
type PhaseCost struct {
	Phase   string  `json:"phase"`
	Bytes   int64   `json:"bytes"`
	Rounds  int64   `json:"rounds"`
	Seconds float64 `json:"seconds"`
}

// memDelta fills in a point's allocator deltas from MemStats snapshots
// taken around its measured run.
func (p *Point) memDelta(before, after *runtime.MemStats) {
	p.HeapAllocDeltaBytes = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	p.TotalAllocDeltaBytes = int64(after.TotalAlloc - before.TotalAlloc)
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
	// GCRealCapCombos caps real execution of the garbled-circuit
	// baseline (product of relation sizes).
	GCRealCapCombos float64
	// Ring is the annotation ring (defaults to ℓ=32).
	Ring share.Ring
	// Seed for data generation.
	Seed int64
	// Tracer, when set, records span timelines of the measured secure
	// runs: one "query@scale/party" track pair per run, exportable with
	// Tracer.WriteChrome.
	Tracer *obs.Tracer
	// Precompute runs the plan-driven offline phase (core.PrecomputeOpts)
	// before each measured secure run and reports the offline/online
	// split on the resulting point. Composed queries (Q8, Q9) execute
	// the shape several times; only the first pass is primed, the rest
	// fall back to the direct protocols.
	Precompute bool
	// ChunkSize bounds the executor's tuple-plane working set during
	// measured secure runs: > 0 streams relations in windows of that
	// many tuples, 0 keeps the default, < 0 materializes fully.
	// Transcript-invariant — Bytes is identical for every setting.
	ChunkSize int
	// Backend forces every applicable semijoin/aggregate step of the
	// measured secure runs onto one secure-join backend; the zero value
	// keeps cost-based per-step selection. Unlike ChunkSize this changes
	// the transcript (and so Bytes).
	Backend core.BackendID
	// Flight enables observability during the measured secure runs and
	// attaches the flight-recorder records of each run to its Point
	// (secyan-bench turns it on whenever -json output is requested).
	Flight bool
}

// DefaultOptions mirror the paper's setup at laptop-friendly scales.
func DefaultOptions() Options {
	return Options{
		ScalesMB:        []float64{0.05, 0.15, 0.5},
		SecureCapMB:     0.5,
		GCRealCapCombos: 1 << 18,
		Ring:            share.Ring{Bits: 32},
		Seed:            1,
	}
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
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		plainRes, err := spec.Plain(db, opt.Ring.Bits)
		if err != nil {
			return nil, fmt.Errorf("benchmark: %s plain at %gMB: %w", spec.Name, scale, err)
		}
		plainPt := Point{
			Query: spec.Name, ScaleMB: scale, EffectiveBytes: eff, Method: MethodPlain,
			Seconds: time.Since(start).Seconds(), Bytes: float64(eff),
			OutputRows: plainRes.Len(),
		}
		runtime.ReadMemStats(&msAfter)
		plainPt.memDelta(&msBefore, &msAfter)
		points = append(points, plainPt)

		// Secure Yannakakis: measured up to the cap, extrapolated after.
		if scale <= opt.SecureCapMB {
			pt, err := runSecure(spec, db, scale, opt)
			if err != nil {
				return nil, fmt.Errorf("benchmark: %s secure at %gMB: %w", spec.Name, scale, err)
			}
			pt.ScaleMB = scale
			pt.EffectiveBytes = eff
			points = append(points, pt)
			cp := pt
			lastSecure = &cp
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

// startHeapSampler starts a background live-heap sampler; the returned
// stop function ends it and reports the peak HeapAlloc observed.
func startHeapSampler() (stop func() int64) {
	done := make(chan struct{})
	res := make(chan int64, 1)
	go func() {
		var peak int64
		var ms runtime.MemStats
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				res <- peak
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if h := int64(ms.HeapAlloc); h > peak {
					peak = h
				}
			}
		}
	}()
	return func() int64 { close(done); return <-res }
}

// runSecure executes the full protocol once and measures wall time and
// Alice's total traffic.
func runSecure(spec queries.Spec, db *tpch.DB, scale float64, opt Options) (Point, error) {
	co := core.Options{ChunkSize: opt.ChunkSize, Backend: opt.Backend}
	alice, bob := mpc.Pair(opt.Ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	if opt.Tracer != nil {
		prefix := fmt.Sprintf("%s@%gMB/", spec.Name, scale)
		alice.Track = opt.Tracer.Track(prefix + "Alice")
		bob.Track = opt.Tracer.Track(prefix + "Bob")
	}
	var kernelsBefore kernelTotals
	if opt.Flight {
		// Record this run in the flight recorder; the records become
		// part of the point. Enabling observation never changes the
		// transcript (the equivalence suites pin this), so flight-on
		// and flight-off points are byte-identical in Bytes.
		if !obs.Enabled() {
			obs.Enable()
			defer obs.Disable()
		}
		obs.Flight().Reset()
		kernelsBefore = snapshotKernels()
	}
	var phases []PhaseCost
	alice.Observer = func(s mpc.StepTrace) {
		if n := len(phases); n == 0 || phases[n-1].Phase != s.Phase {
			phases = append(phases, PhaseCost{Phase: s.Phase})
		}
		pc := &phases[len(phases)-1]
		pc.Bytes += s.Bytes
		pc.Rounds += s.Rounds
		pc.Seconds += s.Elapsed.Seconds()
	}
	// Start from a settled heap so one run's garbage (tens of MB of
	// garbled tables) is not collected on a later run's clock.
	runtime.GC()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	stopSampler := startHeapSampler()
	start := time.Now()
	var offSeconds float64
	var offBytes int64
	if opt.Precompute {
		planQ, err := queries.PlanFor(spec, db)
		if err != nil {
			return Point{}, fmt.Errorf("precompute plan shape: %w", err)
		}
		ctx := context.Background()
		pre := func(p *mpc.Party) (*core.Trace, error) {
			return core.PrecomputeOpts(ctx, p, planQ, co)
		}
		_, _, err = mpc.Run2PC(alice, bob, pre, pre)
		if err != nil {
			return Point{}, fmt.Errorf("precompute: %w", err)
		}
		// Collect the offline phase's garbage (IKNP matrices, circuit
		// builders) on the offline clock, not under the online run.
		runtime.GC()
		offSeconds = time.Since(start).Seconds()
		offBytes = alice.Conn.Stats().TotalBytes()
	}
	run := func(p *mpc.Party) (*relation.Relation, error) {
		return spec.SecureOpts(p, db, co)
	}
	res, _, err := mpc.Run2PC(alice, bob, run, run)
	if err != nil {
		return Point{}, err
	}
	st := alice.Conn.Stats()
	pt := Point{
		Query: spec.Name, Method: MethodSecure,
		Seconds:    time.Since(start).Seconds(),
		Bytes:      float64(st.TotalBytes()),
		OutputRows: res.Len(),
		Phases:     phases,
		Backend:    string(opt.Backend),
	}
	if opt.Precompute {
		pt.OfflineSeconds = offSeconds
		pt.OnlineSeconds = pt.Seconds - offSeconds
		pt.OfflineBytes = float64(offBytes)
	}
	if opt.Flight {
		pt.Flight = obs.Flight().Records()
		pt.Kernels = kernelsBetween(kernelsBefore, snapshotKernels())
	}
	runtime.ReadMemStats(&msAfter)
	pt.memDelta(&msBefore, &msAfter)
	pt.PeakHeapBytes = stopSampler()
	return pt, nil
}

// PrintPhases renders the per-phase breakdown of each measured secure
// point — where a query's communication and time actually go.
func PrintPhases(w io.Writer, points []Point) {
	for _, p := range points {
		if p.Method != MethodSecure || len(p.Phases) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s at %gMB, secure run by phase:\n", p.Query, p.ScaleMB)
		for _, pc := range p.Phases {
			fmt.Fprintf(w, "  %-10s %12s %6d rounds %10.3fs\n",
				pc.Phase, humanBytes(float64(pc.Bytes)), pc.Rounds, pc.Seconds)
		}
	}
}

// PrintMemory renders the allocator view of each measured secure point:
// live-heap growth, cumulative allocation, and the sampled peak heap
// the chunk size bounds.
func PrintMemory(w io.Writer, points []Point) {
	for _, p := range points {
		if p.Method != MethodSecure || p.Extrapolated || p.PeakHeapBytes == 0 {
			continue
		}
		fmt.Fprintf(w, "%s at %gMB, secure run memory: peak heap %s, heap delta %s, allocated %s\n",
			p.Query, p.ScaleMB, humanBytes(float64(p.PeakHeapBytes)),
			humanBytes(float64(p.HeapAllocDeltaBytes)), humanBytes(float64(p.TotalAllocDeltaBytes)))
	}
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
