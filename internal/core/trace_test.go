package core

import (
	"strings"
	"testing"
	"time"
)

// TestTraceFormatGolden pins the EXPLAIN ANALYZE table layout, including
// the measured-messages column, so accidental format drift is caught.
func TestTraceFormatGolden(t *testing.T) {
	tr := &Trace{Steps: []TraceStep{
		{Phase: "setup", Op: "ot-setup", Node: "Alice→Bob", N: 0,
			EstBytes: 76800, Bytes: 77282, Messages: 3, Rounds: 2,
			Elapsed: 1503 * time.Microsecond},
		{Phase: "share", Op: "share-input", Node: "R", N: 128,
			EstBytes: 1024, Bytes: 1032, Messages: 1, Rounds: 1,
			Elapsed: 250 * time.Microsecond},
		{Phase: "reduce", Op: "psi-payload", Node: "S→R", N: 163,
			EstBytes: 2240512, Bytes: 2273664, Messages: 9, Rounds: 4,
			Elapsed: 120 * time.Millisecond},
	}}
	var sb strings.Builder
	tr.Format(&sb)
	want := "" +
		"phase      operator             relation                           rows      est. comm     meas. comm   msgs  rounds         time\n" +
		"setup      ot-setup             Alice→Bob                             0        76.8 kB        77.3 kB      3       2      1.503ms\n" +
		"share      share-input          R                                   128         1.0 kB         1.0 kB      1       1        250µs\n" +
		"reduce     psi-payload          S→R                                 163         2.2 MB         2.3 MB      9       4        120ms\n" +
		"total: estimated 2.3 MB, measured 2.4 MB, 13 messages, elapsed 121.753ms\n"
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
