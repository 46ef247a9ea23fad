package obs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"sync/atomic"
	"time"
)

// Structured event log: a ring-buffered stream of lifecycle events —
// session open/close, query admit/start/step/finish, precompute
// hits/misses, mux faults, daemon scheduling. Every event
// carries the query-scoped tag minted in the root session layer, so one
// query's life can be reconstructed across layers. An optional log/slog
// JSON sink mirrors the stream to a writer (the CLIs' -log-json flag).
// The process log is on exactly while obs is; Emit on a disabled log is
// one atomic load and a branch (TestEventDisabledAllocs).

// QueryTag identifies the query and session an observation belongs to.
// Zero fields mean "unknown" (e.g. events emitted outside any session).
type QueryTag struct {
	SID    uint64 // process-local session ID minted at session open; 0 for in-process runs
	QID    uint64 // process-local query ID minted at admission; 0 before admission
	Tenant string // billing/scheduling principal; empty for single-tenant runs
}

// attrs renders the tag's known fields as log attributes.
func (t QueryTag) attrs() []slog.Attr {
	out := make([]slog.Attr, 0, 3)
	if t.SID != 0 {
		out = append(out, slog.Uint64("sid", t.SID))
	}
	if t.QID != 0 {
		out = append(out, slog.Uint64("qid", t.QID))
	}
	if t.Tenant != "" {
		out = append(out, slog.String("tenant", t.Tenant))
	}
	return out
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
	Time time.Time
	Kind string
	QueryTag
	Attrs []slog.Attr
}

// MarshalJSON flattens the tag and attrs next to the time and kind, so
// /debug/events serves one flat object per event.
func (e Event) MarshalJSON() ([]byte, error) {
	m := map[string]any{"time": e.Time.Format(time.RFC3339Nano), "kind": e.Kind}
	for _, a := range append(e.QueryTag.attrs(), e.Attrs...) {
		v := a.Value.Resolve()
		if v.Kind() == slog.KindDuration {
			m[a.Key] = v.Duration().String()
		} else {
			m[a.Key] = v.Any()
		}
	}
	return json.Marshal(m)
}

// Logger is the ring-buffered structured event log. The process-wide
// instance is Events(), gated by the process switch; tests build
// independent ones with their own switch.
type Logger struct {
	on   *atomic.Bool
	ring ring[Event]
	sink atomic.Pointer[slog.Logger]
}

// eventLog is the process-wide event log, retaining 256 events.
var eventLog = newLogger(&enabled, 256)

// Events returns the process-wide event log.
func Events() *Logger { return eventLog }

func newLogger(on *atomic.Bool, ringSize int) *Logger {
	l := &Logger{on: on}
	l.ring.resize(ringSize)
	return l
}

// SetJSONSink mirrors every event to w as JSON lines via a log/slog
// JSON handler, and turns the log on — for the process log, that is
// Enable. A nil w detaches the sink; the ring keeps collecting.
func (l *Logger) SetJSONSink(w io.Writer) {
	if w == nil {
		l.sink.Store(nil)
		return
	}
	l.sink.Store(slog.New(slog.NewJSONHandler(w, nil)))
	l.on.Store(true)
}

// Reset discards retained events.
func (l *Logger) Reset() { l.ring.clear() }

// Emit records an event when the log is on. kind is a dotted lifecycle
// name (query.start, mux.fault, ...); attrs are copied into the ring.
func (l *Logger) Emit(kind string, tag QueryTag, attrs ...slog.Attr) {
	if !l.on.Load() {
		return
	}
	ev := Event{Time: time.Now(), Kind: kind, QueryTag: tag}
	if len(attrs) > 0 {
		ev.Attrs = append(make([]slog.Attr, 0, len(attrs)), attrs...)
	}
	l.ring.put(ev)
	if sink := l.sink.Load(); sink != nil {
		sink.LogAttrs(context.Background(), slog.LevelInfo, kind, append(tag.attrs(), attrs...)...)
	}
}

// Recent returns up to max retained events, newest first (max <= 0
// returns all).
func (l *Logger) Recent(max int) []Event { return l.ring.recent(max) }
