// Package obs is the repository's observability layer: labeled metric
// families with Prometheus and expvar exposition, span tracing with
// Chrome trace-event export, crypto-kernel handles that feed both from
// one pair of clock reads, a structured event log, a flight recorder of
// completed queries, the live step status, and a debug HTTP server.
//
// The package is stdlib-only and sits below every other package in the
// repository, so it must never import any of them.
//
// There is one process switch, Enable: it gates metrics, the live step
// status, the flight recorder and the event log together. Span tracing
// is on exactly while some Track is bound to a goroutine (Track.Bind),
// which the plan executor does for a party that carries a track.
//
// Two contracts govern every instrumentation site:
//
//   - Disabled means free. With the switch off and no track bound, every
//     instrumentation call reduces to atomic loads and branches — no
//     allocation, no time.Now(), no lock (TestDisabledPathAllocs,
//     BenchmarkObsDisabled in internal/gc).
//
//   - Observation never perturbs transcripts. Metrics, spans and events
//     only read clocks and append to process-local memory; the root
//     transcript-equivalence suite requires byte-identical traffic with
//     and without observation.
package obs

import "sync/atomic"

// enabled is the process switch.
var enabled atomic.Bool

// Enable turns observation on. ServeDebug, daemon.New and
// Logger.SetJSONSink call it.
func Enable() { enabled.Store(true) }

// Disable turns observation back off. Accumulated values are retained.
func Disable() { enabled.Store(false) }

// Enabled reports whether observation is on. Instrumentation sites use
// it to skip work (time.Now calls, attribute and record assembly) whose
// only purpose is to feed metrics, events or records.
func Enabled() bool { return enabled.Load() }
