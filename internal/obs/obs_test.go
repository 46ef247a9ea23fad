package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestCounterGaugeGating(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_c_total", "test counter")
	g := r.NewGauge("t_g", "test gauge")
	c.Add(3)
	c.Inc()
	g.Set(7)
	if c.Value() != 4 || g.Value() != 7 {
		t.Fatalf("enabled registry: counter=%d gauge=%d, want 4 and 7", c.Value(), g.Value())
	}
	r.on.Store(false)
	c.Add(100)
	g.Set(100)
	if c.Value() != 4 || g.Value() != 7 {
		t.Fatalf("disabled registry still recorded: counter=%d gauge=%d", c.Value(), g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21}, {1 << 62, 47}, {1<<63 - 1, 47},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.v); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}

	r := NewRegistry()
	h := r.NewHistogram("t_h_ns", "test histogram")
	for _, v := range []int64{1, 1, 3, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 1005 {
		t.Fatalf("count=%d sum=%d, want 4 and 1005", h.Count(), h.Sum())
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE t_h_ns histogram",
		`t_h_ns_bucket{le="1"} 2`,
		`t_h_ns_bucket{le="4"} 3`,
		`t_h_ns_bucket{le="1024"} 4`,
		`t_h_ns_bucket{le="+Inf"} 4`,
		"t_h_ns_sum 1005",
		"t_h_ns_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_fmt_total", "counts things")
	c.Add(12)
	g := r.NewGauge("t_fmt_gauge", "gauges things")
	g.Set(-3)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := "# HELP t_fmt_total counts things\n" +
		"# TYPE t_fmt_total counter\n" +
		"t_fmt_total 12\n" +
		"# HELP t_fmt_gauge gauges things\n" +
		"# TYPE t_fmt_gauge gauge\n" +
		"t_fmt_gauge -3\n"
	if sb.String() != want {
		t.Fatalf("prometheus text:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("t_snap_total", "x").Add(5)
	h := r.NewHistogram("t_snap_ns", "y")
	h.Observe(9)
	snap := r.Snapshot()
	if snap["t_snap_total"].(int64) != 5 {
		t.Fatalf("snapshot counter = %v", snap["t_snap_total"])
	}
	hv := snap["t_snap_ns"].(map[string]int64)
	if hv["count"] != 1 || hv["sum"] != 9 {
		t.Fatalf("snapshot histogram = %v", hv)
	}
}

// TestDisabledPathAllocs is the nil-sink fast-path contract: with
// metrics disabled and no tracer installed, every instrumentation
// primitive must allocate nothing.
func TestDisabledPathAllocs(t *testing.T) {
	Disable()
	Install(nil)
	c := NewCounter("t_alloc_total", "alloc test")
	g := NewGauge("t_alloc_gauge", "alloc test")
	h := NewHistogram("t_alloc_ns", "alloc test")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(5)
		g.Set(1)
		h.Observe(7)
		sp := Begin("gc", "gc.garble")
		sp.EndN(128)
		if Enabled() {
			t.Fatal("metrics unexpectedly enabled")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestGoroutineTrackBinding(t *testing.T) {
	tr := NewTracer()
	defer Install(nil)
	Install(tr)
	alice := tr.Track("Alice")
	bob := tr.Track("Bob")

	done := make(chan struct{})
	go func() {
		defer close(done)
		release := bob.Bind()
		defer release()
		sp := Begin("ot", "ot.ext.recv")
		sp.EndN(64)
	}()
	release := alice.Bind()
	sp := Begin("gc", "gc.garble")
	sp.End()
	release()
	<-done

	// After release, kernel spans are dropped.
	orphan := Begin("gc", "gc.garble")
	orphan.End()

	if len(alice.spans) != 1 || alice.spans[0].name != "gc.garble" {
		t.Fatalf("alice track spans = %+v", alice.spans)
	}
	if len(bob.spans) != 1 || bob.spans[0].name != "ot.ext.recv" || bob.spans[0].n != 64 {
		t.Fatalf("bob track spans = %+v", bob.spans)
	}
}

func TestDebugServer(t *testing.T) {
	defer Disable()
	NewCounter("t_http_total", "visible on /metrics").Add(0)
	addr, shutdown, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer shutdown()
	if !Enabled() {
		t.Fatal("ServeDebug must enable metric collection")
	}

	SetCurrentStep(StepStatus{QID: 7, Party: "Alice", Phase: "reduce", Op: "psi-payload",
		Node: "lineitem→orders", N: 42, Step: 3, Steps: 10})
	defer ClearCurrentStep(7)

	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return b
	}

	if !strings.Contains(string(get("/metrics")), "t_http_total 0") {
		t.Error("/metrics does not list registered counter")
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Errorf("/debug/vars is not valid JSON: %v", err)
	} else if _, ok := vars["secyan"]; !ok {
		t.Error("/debug/vars missing the secyan registry")
	}
	var steps []StepStatus
	if err := json.Unmarshal(get("/debug/step"), &steps); err != nil {
		t.Fatalf("/debug/step is not valid JSON: %v", err)
	}
	if len(steps) != 1 || steps[0].Op != "psi-payload" || steps[0].N != 42 {
		t.Fatalf("/debug/step = %+v", steps)
	}
	if !strings.Contains(string(get("/debug/pprof/cmdline")), "") {
		t.Error("pprof cmdline unreachable")
	}
}
