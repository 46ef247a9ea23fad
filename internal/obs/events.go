package obs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Structured event log: a ring-buffered stream of lifecycle events —
// session open/close, query admit/start/step/finish, backend auction
// outcomes, precompute pool hits/misses, mux faults and heartbeat
// timeouts. Every event carries the query-scoped tag (session ID +
// query ID) minted in the root session layer and plumbed through
// core.Options / mpc.Party, so a single query's life can be
// reconstructed across layers. An optional log/slog JSON sink mirrors
// the stream to a writer (stderr under the CLIs' -log-json flag).
//
// Like metrics, the event log is free when off: Emit on a disabled
// logger is one atomic load and a branch, and the variadic attrs never
// escape (TestEventDisabledAllocs). Events only read clocks and append
// to process-local memory — they never touch the transport, so the
// transcript-equivalence guardrail covers a fully-observed run.

// QueryTag identifies the query and session an observation belongs to.
// Zero fields mean "unknown" (e.g. events emitted outside any session).
type QueryTag struct {
	// SID is the process-locally unique session ID minted at session
	// open; 0 for sessionless (in-process) runs.
	SID uint64
	// QID is the process-locally unique query ID minted at admission;
	// 0 before admission.
	QID uint64
	// Tenant is the billing/scheduling principal a query runs on behalf
	// of; empty for untagged (single-tenant) runs.
	Tenant string
}

var (
	sidCounter atomic.Uint64
	qidCounter atomic.Uint64
)

// NextSessionID mints a monotonic process-local session ID (first is 1).
func NextSessionID() uint64 { return sidCounter.Add(1) }

// NextQueryID mints a monotonic process-local query ID (first is 1).
func NextQueryID() uint64 { return qidCounter.Add(1) }

// Event is one structured lifecycle event as retained in the ring.
type Event struct {
	Time   time.Time
	Kind   string
	SID    uint64
	QID    uint64
	Tenant string
	Attrs  []slog.Attr
}

// MarshalJSON flattens the event's attrs next to the fixed fields, so
// /debug/events serves one flat object per event.
func (e Event) MarshalJSON() ([]byte, error) {
	m := make(map[string]any, len(e.Attrs)+4)
	m["time"] = e.Time.Format(time.RFC3339Nano)
	m["kind"] = e.Kind
	if e.SID != 0 {
		m["sid"] = e.SID
	}
	if e.QID != 0 {
		m["qid"] = e.QID
	}
	if e.Tenant != "" {
		m["tenant"] = e.Tenant
	}
	for _, a := range e.Attrs {
		m[a.Key] = attrValue(a.Value)
	}
	return json.Marshal(m)
}

// attrValue converts a slog value to a JSON-encodable Go value.
func attrValue(v slog.Value) any {
	v = v.Resolve()
	switch v.Kind() {
	case slog.KindGroup:
		g := map[string]any{}
		for _, a := range v.Group() {
			g[a.Key] = attrValue(a.Value)
		}
		return g
	case slog.KindDuration:
		return v.Duration().String()
	case slog.KindTime:
		return v.Time().Format(time.RFC3339Nano)
	default:
		return v.Any()
	}
}

// DefaultEventRing is the retained-event capacity unless SetRingSize
// overrides it.
const DefaultEventRing = 256

// Logger is the ring-buffered structured event log. The process-wide
// instance is Events(); independent instances exist for tests.
type Logger struct {
	on   atomic.Bool
	mu   sync.Mutex
	ring []Event
	next int
	full bool
	sink *slog.Logger
}

// eventLog is the process-wide event log, off by default.
var eventLog = NewLogger(DefaultEventRing)

// Events returns the process-wide event log.
func Events() *Logger { return eventLog }

// NewLogger returns an independent, disabled event log retaining up to
// ringSize events.
func NewLogger(ringSize int) *Logger {
	if ringSize < 1 {
		ringSize = 1
	}
	return &Logger{ring: make([]Event, ringSize)}
}

// Enable turns the event log on.
func (l *Logger) Enable() { l.on.Store(true) }

// Disable turns the event log off. Retained events stay readable.
func (l *Logger) Disable() { l.on.Store(false) }

// On reports whether the log is collecting. Hot instrumentation sites
// check it before assembling attrs.
func (l *Logger) On() bool { return l.on.Load() }

// SetJSONSink mirrors every event to w as JSON lines via a log/slog
// JSON handler, and enables the log. A nil w detaches the sink (the
// ring keeps collecting until Disable).
func (l *Logger) SetJSONSink(w io.Writer) {
	l.mu.Lock()
	if w == nil {
		l.sink = nil
	} else {
		l.sink = slog.New(slog.NewJSONHandler(w, nil))
	}
	l.mu.Unlock()
	if w != nil {
		l.on.Store(true)
	}
}

// SetRingSize resizes the ring, discarding retained events.
func (l *Logger) SetRingSize(n int) {
	if n < 1 {
		n = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring = make([]Event, n)
	l.next = 0
	l.full = false
}

// Reset discards retained events.
func (l *Logger) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.ring {
		l.ring[i] = Event{}
	}
	l.next = 0
	l.full = false
}

// Emit records an event when the log is enabled. kind is a dotted
// lifecycle name (query.start, mux.fault, ...); attrs are copied into
// the ring, so the variadic slice never escapes at the call site.
func (l *Logger) Emit(kind string, tag QueryTag, attrs ...slog.Attr) {
	if !l.on.Load() {
		return
	}
	ev := Event{Time: time.Now(), Kind: kind, SID: tag.SID, QID: tag.QID, Tenant: tag.Tenant}
	if len(attrs) > 0 {
		ev.Attrs = append(make([]slog.Attr, 0, len(attrs)), attrs...)
	}
	l.mu.Lock()
	l.ring[l.next] = ev
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.full = true
	}
	sink := l.sink
	l.mu.Unlock()
	if sink != nil {
		all := make([]slog.Attr, 0, len(attrs)+2)
		if tag.SID != 0 {
			all = append(all, slog.Uint64("sid", tag.SID))
		}
		if tag.QID != 0 {
			all = append(all, slog.Uint64("qid", tag.QID))
		}
		if tag.Tenant != "" {
			all = append(all, slog.String("tenant", tag.Tenant))
		}
		all = append(all, attrs...)
		sink.LogAttrs(context.Background(), slog.LevelInfo, kind, all...)
	}
}

// Recent returns up to max retained events, newest first (max <= 0
// returns all).
func (l *Logger) Recent(max int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.full {
		n = len(l.ring)
	}
	if max <= 0 || max > n {
		max = n
	}
	out := make([]Event, 0, max)
	for i := 0; i < max; i++ {
		idx := (l.next - 1 - i + 2*len(l.ring)) % len(l.ring)
		out = append(out, l.ring[idx])
	}
	return out
}
