package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeDebugShutdownWaitsForInflight is the regression test for the
// listener-goroutine leak: shutdown must drain in-flight handlers, stop
// accepting, and not return until the serve goroutine has exited.
func TestServeDebugShutdownWaitsForInflight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	addr, shutdown, err := serveDebug("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer Disable()

	type resp struct {
		body string
		err  error
	}
	got := make(chan resp, 1)
	go func() {
		r, err := http.Get("http://" + addr + "/")
		if err != nil {
			got <- resp{"", err}
			return
		}
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		got <- resp{string(b), err}
	}()
	<-entered

	done := make(chan error, 1)
	go func() { done <- shutdown() }()
	select {
	case err := <-done:
		t.Fatalf("shutdown returned (%v) while a handler was still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	if Ready() {
		t.Errorf("Ready() still true during shutdown, want false")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-got
	if r.err != nil || r.body != "done" {
		t.Fatalf("in-flight request: body=%q err=%v, want body=done", r.body, r.err)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Errorf("listener still accepting connections after shutdown")
	}
}

// TestDebugObsEndpoints covers the health/readiness probes and the
// flight-recorder and event-log views of the debug server.
func TestDebugObsEndpoints(t *testing.T) {
	Flight().Reset()
	Flight().Record(QueryRecord{QID: 1, SID: 1, Party: "Alice", Peer: "Bob", Query: "Q3",
		PlanDigest: "00112233aabbccdd", Steps: 5, Seconds: 0.1, Bytes: 512, Rounds: 8})
	defer Flight().Reset()
	lg := Events()
	Enable()
	lg.Emit("query.start", QueryTag{SID: 1, QID: 1})
	defer func() { Disable(); lg.Reset() }()

	addr, shutdown, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		shutdown()
		Disable()
	}()

	get := func(path string) (int, string) {
		t.Helper()
		r, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer r.Body.Close()
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatalf("GET %s read: %v", path, err)
		}
		return r.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/readyz = %d %q, want 200 ok", code, body)
	}
	SetReady(false)
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after SetReady(false) = %d, want 503", code)
	}
	SetReady(true)

	code, body := get("/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("/debug/queries = %d", code)
	}
	var recs []QueryRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("/debug/queries is not valid JSON: %v\n%s", err, body)
	}
	if len(recs) != 1 || recs[0].QID != 1 || recs[0].Query != "Q3" {
		t.Errorf("/debug/queries = %+v, want single Q3 record", recs)
	}
	if _, body := get("/debug/queries?format=table"); !strings.Contains(body, "flight recorder (1 records") {
		t.Errorf("/debug/queries?format=table = %q, want flight-recorder table", body)
	}

	code, body = get("/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events = %d", code)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/debug/events is not valid JSON: %v\n%s", err, body)
	}
	if len(evs) == 0 || evs[0]["kind"] != "query.start" {
		t.Errorf("/debug/events = %v, want newest event query.start", evs)
	}
}
