package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestEventRingWrapRecentNewestFirst(t *testing.T) {
	l := NewLogger(3)
	for i := 1; i <= 5; i++ {
		l.Emit("query.start", QueryTag{QID: uint64(i)})
	}
	got := l.Recent(0)
	if len(got) != 3 {
		t.Fatalf("Recent(0) returned %d events, want 3 (ring size)", len(got))
	}
	for i, wantQID := range []uint64{5, 4, 3} {
		if got[i].QID != wantQID {
			t.Errorf("Recent[%d].QID = %d, want %d (newest first)", i, got[i].QID, wantQID)
		}
	}
	if got := l.Recent(1); len(got) != 1 || got[0].QID != 5 {
		t.Errorf("Recent(1) = %+v, want single newest event qid=5", got)
	}
	l.Reset()
	if got := l.Recent(0); len(got) != 0 {
		t.Errorf("Recent after Reset returned %d events, want 0", len(got))
	}
}

func TestEventJSONSinkLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(8)
	l.on.Store(false)
	l.SetJSONSink(&buf)
	if !l.on.Load() {
		t.Fatalf("SetJSONSink did not enable the log")
	}
	l.Emit("query.finish", QueryTag{SID: 2, QID: 7},
		slog.String("query", "Q3"), slog.Int64("bytes", 123))
	l.Emit("session.close", QueryTag{SID: 2})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink wrote %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("sink line is not valid JSON: %v\n%s", err, lines[0])
	}
	if first["msg"] != "query.finish" {
		t.Errorf(`sink line msg = %v, want "query.finish"`, first["msg"])
	}
	if first["sid"] != float64(2) || first["qid"] != float64(7) {
		t.Errorf("sink line sid/qid = %v/%v, want 2/7", first["sid"], first["qid"])
	}
	if first["query"] != "Q3" || first["bytes"] != float64(123) {
		t.Errorf("sink line attrs = %v, want query=Q3 bytes=123", first)
	}

	// Detaching the sink keeps the ring collecting.
	l.SetJSONSink(nil)
	before := buf.Len()
	l.Emit("query.start", QueryTag{QID: 8})
	if buf.Len() != before {
		t.Errorf("detached sink still received events")
	}
	if got := l.Recent(1); len(got) != 1 || got[0].Kind != "query.start" {
		t.Errorf("ring stopped collecting after sink detach: %+v", got)
	}
}

func TestEventMarshalJSONFlattens(t *testing.T) {
	l := NewLogger(4)
	l.Emit("query.step", QueryTag{SID: 1, QID: 2},
		slog.String("step", "join[orders]"), slog.Int64("bytes", 100))
	ev := l.Recent(1)[0]
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatalf("Event.MarshalJSON: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("marshaled event is not valid JSON: %v", err)
	}
	if m["kind"] != "query.step" || m["sid"] != float64(1) || m["qid"] != float64(2) {
		t.Errorf("fixed fields wrong: %v", m)
	}
	if m["step"] != "join[orders]" || m["bytes"] != float64(100) {
		t.Errorf("attrs not flattened: %v", m)
	}
	if _, ok := m["time"]; !ok {
		t.Errorf("time field missing: %v", m)
	}
	if _, ok := m["Attrs"]; ok {
		t.Errorf("raw Attrs field leaked into JSON: %v", m)
	}
}

// TestEventDisabledAllocs pins that Emit on a disabled log is free: one
// atomic load and a branch, with the variadic attrs never escaping.
func TestEventDisabledAllocs(t *testing.T) {
	l := NewLogger(4)
	l.on.Store(false)
	tag := QueryTag{SID: 1, QID: 2}
	allocs := testing.AllocsPerRun(1000, func() {
		l.Emit("query.step", tag,
			slog.String("phase", "join"), slog.Int64("bytes", 4096), slog.Uint64("stream", 3))
	})
	if allocs != 0 {
		t.Errorf("disabled Emit allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestEventConcurrentEmit(t *testing.T) {
	l := NewLogger(16)
	l.SetJSONSink(&syncDiscard{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Emit("query.step", QueryTag{QID: uint64(g)}, slog.Int64("i", int64(i)))
				if i%50 == 0 {
					l.Recent(4)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(l.Recent(0)); got != 16 {
		t.Errorf("ring holds %d events after concurrent emit, want 16 (full)", got)
	}
}

// syncDiscard is an io.Writer safe for concurrent use (slog handlers
// serialize writes, but the test should not rely on it).
type syncDiscard struct{ mu sync.Mutex }

func (d *syncDiscard) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(p), nil
}

func TestEventIDMinting(t *testing.T) {
	s1, s2 := NextSessionID(), NextSessionID()
	if s1 == 0 || s2 != s1+1 {
		t.Errorf("session IDs not monotonic: %d, %d", s1, s2)
	}
	q1, q2 := NextQueryID(), NextQueryID()
	if q1 == 0 || q2 != q1+1 {
		t.Errorf("query IDs not monotonic: %d, %d", q1, q2)
	}
}
