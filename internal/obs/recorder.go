package obs

import (
	"fmt"
	"io"
	"sort"
)

// Flight recorder: a fixed-size ring of completed-query records. Where
// the event log answers "what is happening", the recorder answers "what
// did query 17 cost": plan digest, per-phase bytes/rounds/wall time
// from the measured Trace, peer and error blame. Served at
// /debug/queries and attached to secyan-bench's -json points. The executor only assembles records while obs is
// enabled.

// PhaseStat aggregates a query's measured per-step trace over one
// protocol phase.
type PhaseStat struct {
	Phase   string  `json:"phase"`
	Bytes   int64   `json:"bytes"`
	Rounds  int64   `json:"rounds"`
	Seconds float64 `json:"seconds"`
}

// QueryRecord is one completed plan execution as retained by the flight
// recorder.
type QueryRecord struct {
	QID        uint64 `json:"qid"`
	SID        uint64 `json:"sid,omitempty"`
	Tenant     string `json:"tenant,omitempty"`
	Party      string `json:"party"`
	Peer       string `json:"peer"`
	Query      string `json:"query"`
	PlanDigest string `json:"plan_digest"`
	Steps      int    `json:"steps"`

	StartUnixNano int64   `json:"start_unix_nano"`
	Seconds       float64 `json:"seconds"`
	Bytes         int64   `json:"bytes"`
	Rounds        int64   `json:"rounds"`
	OutputRows    int     `json:"output_rows,omitempty"`

	Phases []PhaseStat `json:"phases,omitempty"`

	// Error is the execution error, if any; Blame is the failing plan
	// step's "phase/op[node]" label when one is known.
	Error string `json:"error,omitempty"`
	Blame string `json:"blame,omitempty"`
}

// DefaultFlightCapacity is the record retention unless SetCapacity
// overrides it (the CLIs' -flight N flag).
const DefaultFlightCapacity = 128

// FlightRecorder is a fixed-size ring of QueryRecords. The process-wide
// instance is Flight(); independent instances exist for tests.
type FlightRecorder struct{ ring ring[QueryRecord] }

// flight is the process-wide recorder.
var flight = NewFlightRecorder(DefaultFlightCapacity)

// Flight returns the process-wide flight recorder.
func Flight() *FlightRecorder { return flight }

// NewFlightRecorder returns an independent recorder retaining up to
// capacity records.
func NewFlightRecorder(capacity int) *FlightRecorder {
	f := &FlightRecorder{}
	f.ring.resize(capacity)
	return f
}

// SetCapacity resizes the ring to n records (at least 1), discarding
// retained records.
func (f *FlightRecorder) SetCapacity(n int) { f.ring.resize(n) }

// Reset discards retained records.
func (f *FlightRecorder) Reset() { f.ring.clear() }

// Record retains r, evicting the oldest record once the ring is full.
func (f *FlightRecorder) Record(r QueryRecord) { f.ring.put(r) }

// Len returns the number of retained records.
func (f *FlightRecorder) Len() int { return len(f.Records()) }

// Records returns the retained records, newest first, never nil.
func (f *FlightRecorder) Records() []QueryRecord { return f.ring.recent(0) }

// WriteFlightTable renders records as a human-readable table (the
// ?format=table view of /debug/queries and cmd/secyan's -flight output).
func WriteFlightTable(w io.Writer, recs []QueryRecord) {
	fmt.Fprintf(w, "flight recorder (%d records, newest first):\n", len(recs))
	if len(recs) == 0 {
		return
	}
	fmt.Fprintf(w, "%6s %5s %-6s %-10s %-16s %5s %9s %12s %7s %s\n",
		"qid", "sid", "party", "query", "plan digest", "steps", "time", "comm", "rounds", "status")
	for _, r := range recs {
		status := "ok"
		if r.Error != "" {
			status = "error: " + r.Error
			if r.Blame != "" {
				status += " @ " + r.Blame
			}
		}
		if r.Tenant != "" {
			status += " tenant=" + r.Tenant
		}
		fmt.Fprintf(w, "%6d %5d %-6s %-10s %-16s %5d %8.3fs %11dB %7d %s\n",
			r.QID, r.SID, r.Party, r.Query, r.PlanDigest, r.Steps, r.Seconds, r.Bytes, r.Rounds, status)
		phases := append([]PhaseStat(nil), r.Phases...)
		sort.SliceStable(phases, func(i, j int) bool { return phases[i].Bytes > phases[j].Bytes })
		for _, p := range phases {
			fmt.Fprintf(w, "       phase   %-12s %8.3fs %11dB %7d rounds\n",
				p.Phase, p.Seconds, p.Bytes, p.Rounds)
		}
	}
}
