package secyan

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"
	"time"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/obs"
)

// TestTranscriptEquivalenceWithObservability is the observability
// counterpart of the worker-count equivalence test: a fully-observed
// query run — metrics collection enabled, a tracer with both parties
// emitting spans, the structured event log mirroring to a JSON
// sink, and the flight recorder retaining records — must produce
// byte-identical transport statistics and identical results to an
// unobserved run. Observation reads clocks and writes process-local
// memory only — it must never touch the wire.
func TestTranscriptEquivalenceWithObservability(t *testing.T) {
	_, _, _, build := exampleQuery()

	type outcome struct {
		result         []string
		aStats, bStats Stats
	}
	run := func(observed bool) outcome {
		if observed {
			obs.Enable()
			tracer := obs.NewTracer()
			lg := obs.Events()
			lg.SetJSONSink(io.Discard)
			obs.Flight().Reset()
			defer func() {
				lg.SetJSONSink(nil)
				lg.Reset()
				obs.Flight().Reset()
				obs.Disable()
			}()
			alice, bob := OpenLocal(WithTracer(tracer))
			defer alice.Close()
			defer bob.Close()
			res, _, err := queryBoth(alice, bob, build)
			if err != nil {
				t.Fatalf("observed run: %v", err)
			}
			return outcome{resultKey(res), alice.Stats().Data, bob.Stats().Data}
		}
		alice, bob := OpenLocal()
		defer alice.Close()
		defer bob.Close()
		res, _, err := queryBoth(alice, bob, build)
		if err != nil {
			t.Fatalf("unobserved run: %v", err)
		}
		return outcome{resultKey(res), alice.Stats().Data, bob.Stats().Data}
	}

	ref := run(false)
	got := run(true)
	if len(got.result) != len(ref.result) {
		t.Fatalf("observed run: %d result tuples, unobserved %d", len(got.result), len(ref.result))
	}
	for i := range ref.result {
		if got.result[i] != ref.result[i] {
			t.Fatalf("observed result row %q, unobserved %q", got.result[i], ref.result[i])
		}
	}
	if got.aStats != ref.aStats {
		t.Fatalf("observed alice stats %+v, unobserved %+v", got.aStats, ref.aStats)
	}
	if got.bStats != ref.bStats {
		t.Fatalf("observed bob stats %+v, unobserved %+v", got.bStats, ref.bStats)
	}
}

// chromeDump is the subset of the Chrome trace-event envelope the
// consistency test reads back.
type chromeDump struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Tid  int     `json:"tid"`
	} `json:"traceEvents"`
}

// TestChromeTraceMatchesTrace cross-checks the two observability
// surfaces against each other: the step spans of the exported Chrome
// trace must sum (within rounding) to the wall time the Trace measured,
// and every kernel span (gc, ot, psi) must nest inside a plan-step span
// on its own track.
func TestChromeTraceMatchesTrace(t *testing.T) {
	_, _, _, build := exampleQuery()

	tracer := obs.NewTracer()

	alice, bob := mpc.Pair(DefaultRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	alice.Track = tracer.Track("Alice")
	bob.Track = tracer.Track("Bob")

	type ares struct {
		res *Relation
		tr  *core.Trace
	}
	a, _, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (ares, error) {
			res, tr, err := core.Run(context.Background(), p, build(Alice), core.Options{})
			return ares{res, tr}, err
		},
		func(p *mpc.Party) (ares, error) {
			res, tr, err := core.Run(context.Background(), p, build(Bob), core.Options{})
			return ares{res, tr}, err
		},
	)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	var buf bytes.Buffer
	if err := tracer.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var dump chromeDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}

	// Alice's track has tid 0 (created first). Sum her step spans and
	// compare against the Trace's summed wall time.
	var stepSumUs float64
	var steps int
	type iv struct{ start, end float64 }
	stepIvs := map[int][]iv{}
	for _, ev := range dump.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Cat == "step" {
			stepIvs[ev.Tid] = append(stepIvs[ev.Tid], iv{ev.Ts, ev.Ts + ev.Dur})
			if ev.Tid == 0 {
				stepSumUs += ev.Dur
				steps++
			}
		}
	}
	if steps != len(a.tr.Steps) {
		t.Fatalf("Alice's track has %d step spans, Trace has %d steps", steps, len(a.tr.Steps))
	}
	var traceUs float64
	for _, s := range a.tr.Steps {
		traceUs += float64(s.Elapsed) / float64(time.Microsecond)
	}
	diff := stepSumUs - traceUs
	if diff < 0 {
		diff = -diff
	}
	// Both numbers bracket the same exec calls with separate clock reads;
	// allow a small per-step skew before calling it a disagreement.
	if tol := 0.05*traceUs + 1000*float64(steps); diff > tol {
		t.Fatalf("step spans sum to %.0fµs, Trace wall time %.0fµs (diff %.0fµs > tol %.0fµs)",
			stepSumUs, traceUs, diff, tol)
	}

	// Every kernel span nests inside some step span of its own track.
	kernels := 0
	for _, ev := range dump.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Cat {
		case "gc", "ot", "psi":
		default:
			continue
		}
		kernels++
		contained := false
		for _, s := range stepIvs[ev.Tid] {
			if s.start <= ev.Ts && ev.Ts+ev.Dur <= s.end {
				contained = true
				break
			}
		}
		if !contained {
			t.Fatalf("kernel span %s/%s [%.1f, %.1f] on tid %d is not nested in any step span",
				ev.Cat, ev.Name, ev.Ts, ev.Ts+ev.Dur, ev.Tid)
		}
	}
	if kernels == 0 {
		t.Fatal("trace contains no kernel spans; instrumentation is not wired")
	}
	if a.res == nil {
		t.Fatal("Alice received no result")
	}
}

// TestObsTracingEndsWithSession pins that tracing a Session is scoped
// to its executions: once a traced OpenLocal pair has run a query and
// closed, a kernel span anywhere in the process is the no-op zero Span
// again — no goroutine-id lookup, no lock, no allocation.
func TestObsTracingEndsWithSession(t *testing.T) {
	_, _, _, build := exampleQuery()
	tracer := obs.NewTracer()
	alice, bob := OpenLocal(WithTracer(tracer))
	if _, _, err := queryBoth(alice, bob, build); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	alice.Close()
	bob.Close()

	var buf bytes.Buffer
	if err := tracer.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"cat":"ot"`)) {
		t.Fatal("the traced session recorded no kernel spans")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if sp := obs.Begin("gc", "gc.garble"); sp != (obs.Span{}) {
			t.Fatal("obs.Begin opened a span after every traced session closed")
		}
	})
	if allocs != 0 {
		t.Fatalf("obs.Begin allocates %v times after the traced session closed, want 0", allocs)
	}
}
