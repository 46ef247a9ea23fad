package core

import (
	"fmt"
	"io"
	"time"

	"secyan/internal/mpc"
	"secyan/internal/obs"
)

// TraceStep is one executed plan step's record; it aliases mpc.StepTrace
// so observers subscribed through Party.Observer and consumers of the
// Trace returned by Run see the same type.
type TraceStep = mpc.StepTrace

// Trace is the execution record of one plan run: one entry per executed
// step, in plan order. On error it holds the steps completed (or
// attempted) so far.
type Trace struct {
	Steps []TraceStep
}

// TotalBytes sums the measured communication over all steps (both
// directions, as seen from this party — the protocols are synchronous,
// so both parties measure the same totals).
func (t *Trace) TotalBytes() int64 {
	var total int64
	for i := range t.Steps {
		total += t.Steps[i].Bytes
	}
	return total
}

// TotalRounds sums the measured communication rounds over all steps.
func (t *Trace) TotalRounds() int64 {
	var total int64
	for i := range t.Steps {
		total += t.Steps[i].Rounds
	}
	return total
}

// PhaseStats folds the per-step trace into per-phase totals, in first-
// appearance order — the flight recorder's per-phase attribution.
func (t *Trace) PhaseStats() []obs.PhaseStat {
	var out []obs.PhaseStat
	idx := map[string]int{}
	for i := range t.Steps {
		s := &t.Steps[i]
		j, ok := idx[s.Phase]
		if !ok {
			j = len(out)
			idx[s.Phase] = j
			out = append(out, obs.PhaseStat{Phase: s.Phase})
		}
		out[j].Bytes += s.Bytes
		out[j].Rounds += s.Rounds
		out[j].Seconds += s.Elapsed.Seconds()
	}
	return out
}

// Format renders the trace as an EXPLAIN ANALYZE-style table: the plan
// columns plus measured bytes, messages, rounds, wall time per step and
// the part of it this party spent blocked on the peer.
func (t *Trace) Format(w io.Writer) {
	fmt.Fprintf(w, "%-10s %-20s %-28s %10s %14s %14s %6s %7s %12s %12s\n",
		"phase", "operator", "relation", "rows", "est. comm", "meas. comm", "msgs", "rounds", "time", "blocked")
	var est, meas, msgs int64
	var elapsed, blocked time.Duration
	for _, s := range t.Steps {
		est += s.EstBytes
		meas += s.Bytes
		msgs += s.Messages
		elapsed += s.Elapsed
		blocked += s.Blocked
		fmt.Fprintf(w, "%-10s %-20s %-28s %10d %14s %14s %6d %7d %12s %12s\n",
			s.Phase, s.Op, s.Node, s.N, fmtBytes(s.EstBytes), fmtBytes(s.Bytes),
			s.Messages, s.Rounds, s.Elapsed.Round(time.Microsecond), s.Blocked.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "total: estimated %s, measured %s, %d messages, elapsed %s, blocked %s\n",
		fmtBytes(est), fmtBytes(meas), msgs, elapsed.Round(time.Microsecond), blocked.Round(time.Microsecond))
}
