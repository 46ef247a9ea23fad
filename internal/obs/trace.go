package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing records hierarchical timed regions — run → phase → plan
// step → crypto kernel — and exports them as Chrome trace-event JSON
// loadable in chrome://tracing or https://ui.perfetto.dev.
//
// A Tracer owns Tracks, one timeline (one "thread" in the viewer) per
// party. The plan executor begins spans on its party's *Track directly.
// Kernel layers (gc, ot, psi) have no party handle, so the executor binds
// the track to its goroutine (Track.Bind) and Begin / Kernel.Begin
// resolve the calling goroutine's track — a single atomic load while no
// track is bound anywhere in the process.

// Tracer accumulates spans for one traced execution.
type Tracer struct {
	// now returns the elapsed time since the tracer was created; tests
	// replace it with a scripted clock.
	now func() time.Duration

	mu     sync.Mutex
	tracks []*Track
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	start := time.Now()
	return &Tracer{now: func() time.Duration { return time.Since(start) }}
}

// Track creates a new timeline named name (typically the party: "Alice",
// "Bob").
func (t *Tracer) Track(name string) *Track {
	t.mu.Lock()
	defer t.mu.Unlock()
	tk := &Track{tr: t, id: len(t.tracks), name: name}
	t.tracks = append(t.tracks, tk)
	return tk
}

// spanRecord is one completed span on a track.
type spanRecord struct {
	name, cat  string
	start, dur time.Duration
	n          int64
	hasN       bool
}

// Track is one timeline of a tracer.
type Track struct {
	tr   *Tracer
	id   int
	name string

	mu    sync.Mutex
	spans []spanRecord
}

// Span is an open timed region. The zero Span is a valid no-op: End
// does nothing, so disabled tracing costs neither allocation nor clock
// reads.
type Span struct {
	track     *Track
	k         *Kernel // set when the span also feeds the kernel metrics
	name, cat string
	start     time.Duration
}

// Begin opens a span on this track. A nil track yields a no-op span.
func (tk *Track) Begin(cat, name string) Span {
	if tk == nil {
		return Span{}
	}
	return Span{track: tk, cat: cat, name: name, start: tk.tr.now()}
}

// End closes the span.
func (s Span) End() { s.end(0, false) }

// EndN closes the span recording a work count n (gates, OT instances,
// rows): the span's "n" argument in the exported trace, and the
// kernel's units for a span from Kernel.Begin.
func (s Span) EndN(n int64) { s.end(n, true) }

// epoch is the clock of kernel spans that feed metrics only.
var epoch = time.Now()

func (s Span) now() time.Duration {
	if s.track != nil {
		return s.track.tr.now()
	}
	return time.Since(epoch)
}

func (s Span) end(n int64, hasN bool) {
	if s.track == nil && s.k == nil {
		return
	}
	dur := s.now() - s.start
	if s.k != nil {
		s.k.ns.observe(int64(dur))
		s.k.units.v.Add(n)
	}
	if s.track != nil {
		s.track.mu.Lock()
		s.track.spans = append(s.track.spans, spanRecord{
			name: s.name, cat: s.cat, start: s.start, dur: dur, n: n, hasN: hasN})
		s.track.mu.Unlock()
	}
}

// Goroutine → track binding. The map is consulted only while nbound,
// the number of live bindings in the process, is nonzero.
var (
	nbound atomic.Int64
	bindMu sync.Mutex
	bound  = map[uint64]*Track{}
)

// Bind associates the calling goroutine with this track until the
// returned release function runs. Nested binds restore the previous
// binding on release. Binding a nil track is a no-op.
func (tk *Track) Bind() (release func()) {
	if tk == nil {
		return func() {}
	}
	id := goid()
	bindMu.Lock()
	prev, had := bound[id]
	bound[id] = tk
	bindMu.Unlock()
	nbound.Add(1)
	return func() {
		nbound.Add(-1)
		bindMu.Lock()
		if had {
			bound[id] = prev
		} else {
			delete(bound, id)
		}
		bindMu.Unlock()
	}
}

// boundTrack returns the track bound to the calling goroutine, or nil.
func boundTrack() *Track {
	if nbound.Load() == 0 {
		return nil
	}
	id := goid()
	bindMu.Lock()
	defer bindMu.Unlock()
	return bound[id]
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine N [running]:"), on the order of a microsecond.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// Begin opens a span on the track bound to the calling goroutine; with
// none bound it is the no-op zero Span.
func Begin(cat, name string) Span { return boundTrack().Begin(cat, name) }

// Kernel is the measurement handle of one crypto kernel, declared once
// per call site. Its span is the kernel's only clock: Begin/EndN record
// the Chrome-trace span when a track is bound, and the
// secyan_kernel_ns{kernel} histogram plus the
// secyan_kernel_units_total{kernel} counter when obs is enabled, from
// the same two clock reads.
type Kernel struct {
	cat, name string
	ns, units *series
}

var (
	kernelNs = NewHistogram("secyan_kernel_ns",
		"Latency of one crypto-kernel call in nanoseconds, by kernel.", "kernel")
	kernelUnits = NewCounter("secyan_kernel_units_total",
		"Work units (gates, OT instances, PSI bins) of crypto-kernel calls, by kernel; units / ns is the kernel's rate.", "kernel")
)

// NewKernel returns the handle of the kernel called name; its span
// category is the part of name before the first dot ("gc.garble" → gc).
func NewKernel(name string) *Kernel {
	cat, _, _ := strings.Cut(name, ".")
	key := []string{name}
	return &Kernel{cat: cat, name: name, ns: kernelNs.get(key), units: kernelUnits.get(key)}
}

// Begin opens one call of the kernel; close it with EndN(units).
func (k *Kernel) Begin() Span {
	s := Span{track: boundTrack(), name: k.name, cat: k.cat}
	if enabled.Load() {
		s.k = k
	}
	if s.track == nil && s.k == nil {
		return Span{}
	}
	s.start = s.now()
	return s
}

// KernelTotal returns the units processed and nanoseconds spent, while
// obs was enabled, by the kernels whose name starts with prefix. Tests
// difference two snapshots around a run to assert which kernels it used
// (a derived OT direction runs no base OT, a plain semijoin no indexed
// PSI).
func KernelTotal(prefix string) (units, ns int64) {
	for _, s := range kernelNs.sorted() {
		if name := s.vals[0]; strings.HasPrefix(name, prefix) {
			units += kernelUnits.Value(name)
			ns += s.sum.Load()
		}
	}
	return units, ns
}

// chromeEvent is one span of the Chrome trace-event format; field order
// is the serialization order the golden tests pin.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat,omitempty"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur,omitempty"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// WriteChrome writes the accumulated spans as Chrome trace-event JSON:
// one thread per track (named via metadata events), one complete ("X")
// event per span, in microseconds. Within a track, events are ordered by
// start time with enclosing spans first, so the output is deterministic
// given deterministic timestamps.
func (t *Tracer) WriteChrome(w io.Writer) error {
	t.mu.Lock()
	tracks := append([]*Track(nil), t.tracks...)
	t.mu.Unlock()

	type metaEvent struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	events := []any{}
	for _, tk := range tracks {
		events = append(events, metaEvent{Name: "thread_name", Ph: "M", Tid: tk.id,
			Args: map[string]string{"name": tk.name}})
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, tk := range tracks {
		tk.mu.Lock()
		spans := append([]spanRecord(nil), tk.spans...)
		tk.mu.Unlock()
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].dur > spans[j].dur
		})
		for _, sp := range spans {
			ev := chromeEvent{Name: sp.name, Cat: sp.cat, Ph: "X", Ts: us(sp.start), Dur: us(sp.dur), Tid: tk.id}
			if sp.hasN {
				ev.Args = map[string]int64{"n": sp.n}
			}
			events = append(events, ev)
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []any  `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}{events, "ms"})
}
