package main

import (
	"bytes"
	"math"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// program reports from, so neither can drift from the other.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var b benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Command) != 3 || b.Command[0] != "go" || b.Command[1] != "run" || b.Command[2] != "./bench" {
		t.Errorf("command is %v, want go run ./bench", b.Command)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths is %v, want [bench]", b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, -seconds defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if b.EndToEnd[i] != d {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, b.EndToEnd[i], d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsSmoke runs every workload twice at scale 0.01 — the
// untraced pass and the traced one — with two timed operations and no
// kernel probe above n = 64.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := config{workload: w.Name, seed: 1, scale: 0.01, maxOps: 2, probeCap: 64, outDir: t.TempDir()}
			e2e := smokeRun(t, cfg, endToEnd)
			for name, m := range e2e.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s is %v; an end-to-end metric is never 0", name, m.Value)
				}
			}
			if e2e.Counts["wire_bytes_varied"] != 0 {
				t.Errorf("wire_bytes differs between two queries of one run")
			}

			cfg.trace = true
			layers := smokeRun(t, cfg, perLayer)
			if w.query != "" {
				f := layers.Metrics["core.attributed_frac"].Value
				t.Logf("core.attributed_frac = %.3f", f)
				if f < 0.90 {
					t.Errorf("core.attributed_frac is %v, want at least 0.90", f)
				}
				var phaseBytes float64
				for name, m := range layers.Metrics {
					if ok, _ := filepath.Match("core.phase.*_bytes", name); ok {
						phaseBytes += m.Value
					}
				}
				if wire := e2e.Metrics["wire_bytes"].Value; phaseBytes != wire {
					t.Errorf("core.phase.*_bytes sum to %v, wire_bytes is %v", phaseBytes, wire)
				}
			}
			var tr struct {
				Spans []struct {
					ID, Parent int
					Self       float64 `json:"self_s"`
				}
			}
			if err := readJSON(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"), &tr); err != nil {
				t.Fatal(err)
			}
			if len(tr.Spans) < 10 {
				t.Errorf("trace holds %d spans", len(tr.Spans))
			}
			for _, s := range tr.Spans {
				if s.Self < -1e-9 {
					t.Errorf("span %d has self time %v", s.ID, s.Self)
				}
			}
		})
	}
}

func smokeRun(t *testing.T, cfg config, defs []metricDef) *runResult {
	t.Helper()
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.FailFrac != 0 || !res.Correct {
		t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, the table has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s is not reported", d.Name)
		}
		if m.Unit != d.Unit {
			t.Errorf("%s is reported in %q, the table says %q", d.Name, m.Unit, d.Unit)
		}
		if !metricName.MatchString(d.Name) {
			t.Errorf("%q is not a metric name", d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s is %v", d.Name, m.Value)
		}
	}
	return res
}

// TestQuartiles checks the order statistics against values Python's
// statistics.quantiles(values, n=4) gives.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.in)
		if s.Q1 != tc.q1 || s.Median != tc.q2 || s.Q3 != tc.q3 {
			t.Errorf("quartiles of %v are %v %v %v, want %v %v %v", tc.in, s.Q1, s.Median, s.Q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if p := percentile([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 0.80); p != 8 {
		t.Errorf("p80 of 1..10 is %v, want 8", p)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 4},
		{ID: 3, Parent: 1, Start: 3, End: 6}, // overlaps span 2 for one second
		{ID: 4, Parent: 2, Start: 1, End: 2},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 5, 2: 2, 3: 3, 4: 1} {
		if self[id] != want {
			t.Errorf("self time of span %d is %v, want %v", id, self[id], want)
		}
	}
}

// TestCompare writes two result files and checks the verdict of every
// kind of row and whether the comparison passes.
func TestCompare(t *testing.T) {
	steady := summarize([]float64{1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1})
	noisy := summarize([]float64{0.2, 3, 0.1, 5, 1, 1, 4, 0.3})
	file := func(name string, query, failFrac float64) string {
		out := resultFile{SchemaVersion: schemaVersion, Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			res := &runResult{Workload: w.Name, FailFrac: failFrac, Metrics: map[string]metricValue{},
				Timings: map[string]summary{"query_s": steady, "online_s": noisy}}
			for _, d := range endToEnd {
				res.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit}
			}
			res.Metrics["query_s"] = metricValue{Value: query, Unit: "s"}
			res.Metrics["online_s"] = metricValue{Value: query, Unit: "s"}
			out.Workloads[w.Name] = &workloadResult{EndToEnd: res}
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, out); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := file("parent.json", 1, 0)
	b := 0.0 // the bound query_s and online_s share
	for _, d := range endToEnd {
		if d.Name == "query_s" {
			b = d.Bound
		}
	}
	for _, tc := range []struct {
		name               string
		query, fail        float64
		ok                 bool
		queryRow, failsRow string
	}{
		{"same", 1 + b/2, 0, true, "same", "same"},
		{"worse", 1 + 1.5*b, 0, false, "worse", "same"},
		{"better", 1 - 1.5*b, 0, true, "better", "same"},
		{"failures", 1, 0.01, false, "same", "worse"},
	} {
		var buf bytes.Buffer
		ok, err := compareFiles(&buf, parent, file("change.json", tc.query, tc.fail))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: compare passed = %v, want %v\n%s", tc.name, ok, tc.ok, buf.String())
		}
		// online_s moves with query_s, but its parent samples are too
		// noisy for any verdict.
		for metric, want := range map[string]string{"query_s": tc.queryRow, "online_s": "unresolved", "fail_frac": tc.failsRow} {
			re := regexp.MustCompile(`(?m)^q3_large +` + metric + ` .* ` + want + `$`)
			if !re.Match(buf.Bytes()) {
				t.Errorf("%s: no %q verdict for %s in\n%s", tc.name, want, metric, buf.String())
			}
		}
	}

	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.1}
	for change, want := range map[float64]string{0.8: "worse", 0.95: "same", 1.2: "better"} {
		if got := verdict(higher, 1, change, steady); got != want {
			t.Errorf("higher-is-better metric at %v of its parent: %s, want %s", change, got, want)
		}
	}
}
