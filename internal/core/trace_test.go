package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"secyan/internal/mpc"
)

// TestTraceFormatGolden pins the EXPLAIN ANALYZE table layout, including
// the measured-messages and blocked-on-peer columns, so accidental
// format drift is caught.
func TestTraceFormatGolden(t *testing.T) {
	tr := &Trace{Steps: []TraceStep{
		{Phase: "setup", Op: "ot-setup", Node: "Alice→Bob", N: 0,
			EstBytes: 76800, Bytes: 77282, Messages: 3, Rounds: 2,
			Elapsed: 1503 * time.Microsecond, Blocked: 700 * time.Microsecond},
		{Phase: "share", Op: "share-input", Node: "R", N: 128,
			EstBytes: 1024, Bytes: 1032, Messages: 1, Rounds: 1,
			Elapsed: 250 * time.Microsecond},
		{Phase: "reduce", Op: "psi-payload", Node: "S→R", N: 163,
			EstBytes: 2240512, Bytes: 2273664, Messages: 9, Rounds: 4,
			Elapsed: 120 * time.Millisecond, Blocked: 41 * time.Millisecond},
	}}
	var sb strings.Builder
	tr.Format(&sb)
	want := "" +
		"phase      operator             relation                           rows      est. comm     meas. comm   msgs  rounds         time      blocked\n" +
		"setup      ot-setup             Alice→Bob                             0        76.8 kB        77.3 kB      3       2      1.503ms        700µs\n" +
		"share      share-input          R                                   128         1.0 kB         1.0 kB      1       1        250µs           0s\n" +
		"reduce     psi-payload          S→R                                 163         2.2 MB         2.3 MB      9       4        120ms         41ms\n" +
		"total: estimated 2.3 MB, measured 2.4 MB, 13 messages, elapsed 121.753ms, blocked 41.7ms\n"
	if got := sb.String(); got != want {
		t.Errorf("Trace.Format drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceTotals checks the summed accessors used by callers that do
// their own reporting.
func TestTraceTotals(t *testing.T) {
	tr := &Trace{Steps: []TraceStep{
		{Bytes: 10}, {Bytes: 32},
	}}
	if got := tr.TotalBytes(); got != 42 {
		t.Errorf("TotalBytes = %d, want 42", got)
	}
}

// TestStepBlockedWithinElapsed runs a multi-node query and checks each
// party's per-step Blocked time: never negative, never more than the
// step's Elapsed, and nonzero on at least one side of every step that
// moves a message — whoever receives it waits in Recv, however briefly.
func TestStepBlockedWithinElapsed(t *testing.T) {
	q := multiNodeQuery(rand.New(rand.NewSource(5)))
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	done := make(chan *Trace, 1)
	go func() {
		_, tr, err := Run(context.Background(), bob, q.For(mpc.Bob), Options{})
		if err != nil {
			t.Error(err)
		}
		done <- tr
	}()
	_, ta, err := Run(context.Background(), alice, q.For(mpc.Alice), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := <-done
	if len(ta.Steps) != len(tb.Steps) {
		t.Fatalf("alice traced %d steps, bob %d", len(ta.Steps), len(tb.Steps))
	}
	for i := range ta.Steps {
		a, b := ta.Steps[i], tb.Steps[i]
		for _, s := range []TraceStep{a, b} {
			if s.Blocked < 0 || s.Blocked > s.Elapsed {
				t.Errorf("step %d %s/%s[%s]: blocked %v outside [0, elapsed %v]", i, s.Phase, s.Op, s.Node, s.Blocked, s.Elapsed)
			}
		}
		if a.Messages > 0 && a.Blocked == 0 && b.Blocked == 0 {
			t.Errorf("step %d %s/%s[%s]: %d messages but neither party waited in Recv", i, a.Phase, a.Op, a.Node, a.Messages)
		}
	}
}
