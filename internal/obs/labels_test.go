package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestLabelVecExposition(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounter("t_steps_total", "steps", "phase", "backend")
	cv.Add(3, "join", "psi")
	cv.Add(2, "agg", "gc")
	cv.Inc("join", "psi")

	gv := r.NewGauge("t_depth", "depth", "tenant")
	gv.Set(7, "acme")
	gv.Add(-2, "acme")

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE t_steps_total counter",
		`t_steps_total{phase="agg",backend="gc"} 2`,
		`t_steps_total{phase="join",backend="psi"} 4`,
		"# TYPE t_depth gauge",
		`t_depth{tenant="acme"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if got := cv.Value("join", "psi"); got != 4 {
		t.Errorf("Value(join,psi) = %d, want 4", got)
	}
	if got := cv.Value("never", "seen"); got != 0 {
		t.Errorf("Value of absent series = %d, want 0", got)
	}
}

func TestLabelVecHistogramExposition(t *testing.T) {
	r := NewRegistry()
	hv := r.NewHistogram("t_lat_ns", "latency", "query")
	hv.Observe(1, "Q3")
	hv.Observe(3, "Q3")
	hv.Observe(1000, "Q10")

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE t_lat_ns histogram",
		`t_lat_ns_bucket{query="Q3",le="1"} 1`,
		`t_lat_ns_bucket{query="Q3",le="4"} 2`,
		`t_lat_ns_bucket{query="Q3",le="+Inf"} 2`,
		`t_lat_ns_sum{query="Q3"} 4`,
		`t_lat_ns_count{query="Q3"} 2`,
		`t_lat_ns_bucket{query="Q10",le="1024"} 1`,
		`t_lat_ns_count{query="Q10"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if got := hv.Count("Q3"); got != 2 {
		t.Errorf("Count(Q3) = %d, want 2", got)
	}
}

// TestLabelCardinalityCap pins the overflow policy: once a vec holds
// MaxSeries distinct combinations, new ones fold into a single series
// whose every label value is "overflow".
func TestLabelCardinalityCap(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounter("t_capped_total", "capped", "query")
	cv.max = 2
	cv.Add(1, "a")
	cv.Add(1, "b")
	cv.Add(5, "c") // beyond the cap: folds into overflow
	cv.Add(2, "d") // same overflow series
	cv.Add(1, "a") // existing series still counts normally

	if got := cv.Value("a"); got != 2 {
		t.Errorf("Value(a) = %d, want 2", got)
	}
	if got := cv.Value("c"); got != 0 {
		t.Errorf("Value(c) = %d, want 0 (folded)", got)
	}
	if got := cv.Value(OverflowValue); got != 7 {
		t.Errorf("Value(overflow) = %d, want 7", got)
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `t_capped_total{query="overflow"} 7`) {
		t.Errorf("overflow series missing from exposition:\n%s", b.String())
	}
	if strings.Contains(b.String(), `query="c"`) {
		t.Errorf("capped series leaked into exposition:\n%s", b.String())
	}

	hv := r.NewHistogram("t_capped_ns", "capped", "query")
	hv.max = 1
	hv.Observe(10, "a")
	hv.Observe(10, "b")
	hv.Observe(10, "c")
	if got := hv.Count("a"); got != 1 {
		t.Errorf("hist Count(a) = %d, want 1", got)
	}
	if got := hv.Count(OverflowValue); got != 2 {
		t.Errorf("hist Count(overflow) = %d, want 2", got)
	}
}

// TestLabelVecDisabledAllocs pins the acceptance criterion that labeled
// metric calls on the disabled path allocate nothing: the variadic label
// values must not escape.
func TestLabelVecDisabledAllocs(t *testing.T) {
	// An independent registry flipped off, so repeated runs in one
	// process (-count=3) don't collide in the default registry; the
	// disabled gate is the same atomic-load-and-branch either way.
	r := NewRegistry()
	r.on.Store(false)
	cv := r.NewCounter("t_disabled_steps_total", "t", "phase", "backend")
	gv := r.NewGauge("t_disabled_depth", "t", "tenant")
	hv := r.NewHistogram("t_disabled_lat_ns", "t", "query")
	allocs := testing.AllocsPerRun(1000, func() {
		cv.Add(1, "join", "psi")
		cv.Inc("agg", "gc")
		gv.Set(3, "acme")
		hv.Observe(17, "Q3")
	})
	if allocs != 0 {
		t.Errorf("disabled labeled-metric path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestLabelVecConcurrent(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounter("t_conc_total", "t", "phase")
	cv.max = 4
	hv := r.NewHistogram("t_conc_ns", "t", "phase")
	phases := []string{"join", "agg", "reveal", "semi", "extra1", "extra2"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := phases[(g+i)%len(phases)]
				cv.Inc(p)
				hv.Observe(int64(i), p)
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, p := range phases {
		total += cv.Value(p)
	}
	total += cv.Value(OverflowValue)
	if total != 8*500 {
		t.Errorf("concurrent increments lost: total %d, want %d", total, 8*500)
	}
	var b strings.Builder
	r.WritePrometheus(&b) // must not race with writers
}

func TestLabelVecArityPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounter("t_arity_total", "t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Errorf("Add with wrong label arity did not panic")
		}
	}()
	cv.Add(1, "only-one")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounter("t_escape_total", "t", "query")
	cv.Add(1, "evil \"name\"\\\n")
	var b strings.Builder
	r.WritePrometheus(&b)
	want := `t_escape_total{query="evil \"name\"\\\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped exposition missing %q in:\n%s", want, b.String())
	}
}
