package obs

import (
	"expvar"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric naming scheme (see DESIGN.md §9): secyan_<package>_<what>_<unit>,
// counters suffixed _total, durations in nanoseconds with the _ns
// suffix. Every instrument is a Metric — a family of series keyed by
// label values — created at package init time in the default registry.
// Add/Set/Observe on a disabled registry is one atomic load and a
// branch, and the variadic label values never escape
// (TestLabelVecDisabledAllocs). An unlabeled instrument is a family with
// no keys whose one series is resolved at construction, so enabled Add
// on it is one more atomic.

const (
	// DefaultMaxSeries caps the label combinations of a family; beyond
	// it, new ones fold into one series whose every label value is
	// OverflowValue.
	DefaultMaxSeries = 128
	OverflowValue    = "overflow"

	// labelSep joins label values into a map key; U+001F never appears
	// in the label values this repository emits.
	labelSep = "\x1f"

	// histBuckets is the bucket count of every histogram: bucket i holds
	// observations v with 2^(i-1) < v ≤ 2^i (bucket 0 holds v ≤ 1), the
	// last is unbounded — nanosecond latencies up to ~3.9 days.
	histBuckets = 48
)

// Registry is an ordered collection of metrics with Prometheus and
// expvar exposition. All instrumentation writes to the default registry;
// tests build independent ones with their own switch.
type Registry struct {
	on      *atomic.Bool
	mu      sync.Mutex
	metrics []*Metric
}

// defaultRegistry collects every metric in the process, gated by the
// process switch.
var defaultRegistry = &Registry{on: &enabled}

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

func init() {
	// The default registry's values under /debug/vars, next to the
	// stdlib's memstats and cmdline.
	expvar.Publish("secyan", expvar.Func(func() any { return defaultRegistry.Snapshot() }))
}

// Metric is one instrument: a counter, gauge or histogram family fanned
// out over a fixed list of label keys (none for an unlabeled one).
// Methods take the label values last, one per key; a count mismatch
// panics, a programming error caught in tests, never in a data path.
type Metric struct {
	on         *atomic.Bool
	name, help string
	typ        string // Prometheus TYPE: counter, gauge or histogram
	keys       []string
	one        *series // the only series of a family without keys

	mu     sync.Mutex // guards series; the values themselves are atomics
	max    int
	series map[string]*series
}

// series is one label combination of a family. v is the counter or
// gauge value, or the histogram's observation count.
type series struct {
	vals    []string
	v, sum  atomic.Int64
	buckets []atomic.Int64 // histBuckets long for histograms, else nil
}

// NewCounter creates a monotonically increasing counter family.
func NewCounter(name, help string, keys ...string) *Metric {
	return defaultRegistry.register("counter", name, help, keys)
}

// NewGauge creates a settable gauge family.
func NewGauge(name, help string, keys ...string) *Metric {
	return defaultRegistry.register("gauge", name, help, keys)
}

// NewHistogram creates a log2-bucket histogram family.
func NewHistogram(name, help string, keys ...string) *Metric {
	return defaultRegistry.register("histogram", name, help, keys)
}

// register creates a family of the given Prometheus type in r.
func (r *Registry) register(typ, name, help string, keys []string) *Metric {
	m := &Metric{on: r.on, name: name, help: help, typ: typ,
		keys: append([]string(nil), keys...), max: DefaultMaxSeries, series: map[string]*series{}}
	if len(keys) == 0 {
		m.one = m.get(nil)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, o := range r.metrics {
		if o.name == name {
			panic("obs: duplicate metric " + name)
		}
	}
	r.metrics = append(r.metrics, m)
	return m
}

// key returns the series map key of vals.
func (m *Metric) key(vals []string) string {
	if len(vals) != len(m.keys) {
		panic(fmt.Sprintf("obs: metric %s takes %d label values, got %d", m.name, len(m.keys), len(vals)))
	}
	return strings.Join(vals, labelSep)
}

// get returns the series for vals, creating it — or, past the cap,
// folding it into the overflow series.
func (m *Metric) get(vals []string) *series {
	if m.one != nil && len(vals) == 0 {
		return m.one
	}
	key := m.key(vals)
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.series[key]; s != nil {
		return s
	}
	if len(m.series) >= m.max {
		vals = make([]string, len(m.keys))
		for i := range vals {
			vals[i] = OverflowValue
		}
		key = m.key(vals)
		if s := m.series[key]; s != nil {
			return s
		}
	}
	s := &series{vals: append([]string(nil), vals...)}
	if m.typ == "histogram" {
		s.buckets = make([]atomic.Int64, histBuckets)
	}
	m.series[key] = s
	return s
}

// lookup returns the existing series for vals, or nil.
func (m *Metric) lookup(vals []string) *series {
	key := m.key(vals)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.series[key]
}

// Add adds n to the series for vals (a counter's increment, a gauge's
// adjustment) when collection is enabled.
func (m *Metric) Add(n int64, vals ...string) {
	if m.on.Load() {
		m.get(vals).v.Add(n)
	}
}

// Inc adds 1 to the series for vals.
func (m *Metric) Inc(vals ...string) { m.Add(1, vals...) }

// Set stores n in the gauge series for vals when collection is enabled.
func (m *Metric) Set(n int64, vals ...string) {
	if m.on.Load() {
		m.get(vals).v.Store(n)
	}
}

// Observe records v in the histogram series for vals when collection is
// enabled.
func (m *Metric) Observe(v int64, vals ...string) {
	if m.on.Load() {
		m.get(vals).observe(v)
	}
}

func (s *series) observe(v int64) {
	s.v.Add(1)
	s.sum.Add(v)
	s.buckets[bucketOf(v)].Add(1)
}

// Value returns the series' counter or gauge value, or a histogram's
// observation count; 0 if the series does not exist.
func (m *Metric) Value(vals ...string) int64 {
	if s := m.lookup(vals); s != nil {
		return s.v.Load()
	}
	return 0
}

// Count is Value, spelled for histograms.
func (m *Metric) Count(vals ...string) int64 { return m.Value(vals...) }

// Sum returns the sum of a histogram series' observations (0 if absent).
func (m *Metric) Sum(vals ...string) int64 {
	if s := m.lookup(vals); s != nil {
		return s.sum.Load()
	}
	return 0
}

// bucketOf returns the log2 bucket index of v: the smallest i with
// v ≤ 2^i, clamped to the last (unbounded) bucket.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	return min(bits.Len64(uint64(v-1)), histBuckets-1)
}

// bucketBound renders the upper bound of bucket i as a Prometheus `le`
// label value.
func bucketBound(i int) string {
	if i == histBuckets-1 {
		return "+Inf"
	}
	return fmt.Sprintf("%d", int64(1)<<i)
}

// escapeLabel renders a label value for the Prometheus text format.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace

// labels renders a series' `k1="v1",k2="v2"` label pairs.
func (m *Metric) labels(s *series) string {
	pairs := make([]string, len(m.keys))
	for i, k := range m.keys {
		pairs[i] = k + `="` + escapeLabel(s.vals[i]) + `"`
	}
	return strings.Join(pairs, ",")
}

// sorted returns the family's series ordered by label values.
func (m *Metric) sorted() []*series {
	m.mu.Lock()
	out := make([]*series, 0, len(m.series))
	for _, s := range m.series {
		out = append(out, s)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].vals, labelSep) < strings.Join(out[j].vals, labelSep)
	})
	return out
}

// writeProm renders the family in Prometheus text format. A histogram
// series is every bucket as a cumulative count, its bound in an `le`
// label after the series' own labels, then `_sum` and `_count`.
func (m *Metric) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
	for _, s := range m.sorted() {
		labels, braced := m.labels(s), ""
		if labels != "" {
			braced = "{" + labels + "}"
			labels += ","
		}
		if m.typ != "histogram" {
			fmt.Fprintf(w, "%s%s %d\n", m.name, braced, s.v.Load())
			continue
		}
		var cum int64
		for i := range s.buckets {
			cum += s.buckets[i].Load()
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", m.name, labels, bucketBound(i), cum)
		}
		fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", m.name, braced, s.sum.Load(), m.name, braced, s.v.Load())
	}
}

// snapshotValue returns the expvar/JSON representation: a number (or a
// count/sum pair for histograms) for an unlabeled family, else those
// keyed by rendered label pairs.
func (m *Metric) snapshotValue() any {
	value := func(s *series) any {
		if m.typ == "histogram" {
			return map[string]int64{"count": s.v.Load(), "sum": s.sum.Load()}
		}
		return s.v.Load()
	}
	if m.one != nil {
		return value(m.one)
	}
	out := map[string]any{}
	for _, s := range m.sorted() {
		out[m.labels(s)] = value(s)
	}
	return out
}

// all returns a copy of the registered metrics in registration order.
func (r *Registry) all() []*Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Metric(nil), r.metrics...)
}

// WritePrometheus renders every metric in Prometheus text exposition
// format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, m := range r.all() {
		m.writeProm(w)
	}
}

// Snapshot returns all metric values keyed by name — the expvar view.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	for _, m := range r.all() {
		out[m.name] = m.snapshotValue()
	}
	return out
}
