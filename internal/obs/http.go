package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// ready is the process readiness bit served by /readyz. ServeDebug sets
// it on start and clears it on shutdown; a daemon embedding
// DebugHandler flips it around its own lifecycle with SetReady.
var ready atomic.Bool

// SetReady sets the /readyz state.
func SetReady(b bool) { ready.Store(b) }

// Ready reports the /readyz state.
func Ready() bool { return ready.Load() }

// shutdownGrace bounds how long shutdown waits for in-flight handlers
// before force-closing their connections.
const shutdownGrace = 5 * time.Second

// Extra debug pages registered by higher layers (the daemon's
// /debug/tenants), so DebugHandler stays the single route source for
// both ServeDebug and embedders.
var (
	pagesMu sync.Mutex
	pages   = map[string]http.HandlerFunc{}
)

// RegisterDebugPage mounts h at path on every handler DebugHandler
// builds after the call (nil h removes it). Fixed routes cannot be
// overridden.
func RegisterDebugPage(path string, h http.HandlerFunc) {
	pagesMu.Lock()
	defer pagesMu.Unlock()
	if h == nil {
		delete(pages, path)
		return
	}
	pages[path] = h
}

// ServeDebug starts the debug HTTP server on addr (host:port; port 0
// picks a free one), enables observation and marks the process ready.
// It serves:
//
//	/healthz        liveness: 200 "ok" while the server runs
//	/readyz         readiness: 200 "ok" after SetReady(true), 503 before
//	/metrics        Prometheus text exposition of the default registry
//	/debug/vars     expvar JSON (includes the registry under "secyan")
//	/debug/pprof/   the standard net/http/pprof profile endpoints
//	/debug/step     live JSON snapshot of the currently executing plan
//	                step of every query in this process
//	/debug/queries  the flight recorder's completed-query records as
//	                JSON (append ?format=table for the human table)
//	/debug/events   the event log's retained events, newest first
//
// It returns the bound address (useful with port 0) and a function that
// gracefully shuts the server down: in-flight handlers get a bounded
// grace period, then their connections are closed, and the function
// does not return until the serve goroutine has exited.
func ServeDebug(addr string) (boundAddr string, shutdown func() error, err error) {
	return serveDebug(addr, DebugHandler())
}

// serveDebug is ServeDebug with an injectable handler (shutdown tests
// install deliberately slow handlers).
func serveDebug(addr string, h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	Enable()
	SetReady(true)
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(served)
	}()
	shutdown := func() error {
		SetReady(false)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		err := srv.Shutdown(ctx)
		if err != nil {
			// Grace expired with handlers still running: force-close
			// their connections so nothing lingers.
			srv.Close()
		}
		<-served
		return err
	}
	return ln.Addr().String(), shutdown, nil
}

// writeText and writeJSON render one debug response.
func writeText(w http.ResponseWriter, code int, s string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	io.WriteString(w, s)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// DebugHandler returns the debug server's route multiplexer, so tests
// and daemons can drive the endpoints without a socket.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { writeText(w, http.StatusOK, "ok\n") })
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !Ready() {
			writeText(w, http.StatusServiceUnavailable, "not ready\n")
			return
		}
		writeText(w, http.StatusOK, "ok\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		Default().WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/pprof/", http.DefaultServeMux) // where net/http/pprof registers
	mux.HandleFunc("/debug/step", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, CurrentSteps()) })
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		recs := Flight().Records()
		if r.URL.Query().Get("format") == "table" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			WriteFlightTable(w, recs)
			return
		}
		writeJSON(w, recs)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, Events().Recent(0)) })
	pagesMu.Lock()
	for path, h := range pages {
		mux.HandleFunc(path, h)
	}
	pagesMu.Unlock()
	return mux
}
