package core

import (
	"fmt"
	"io"
	"strings"
)

// Rendering of plans (see plan.go for Explain and the compiler). The
// estimates being data-independent is a restatement of the protocol's
// obliviousness: both parties compute identical plans from public
// parameters alone.

// Format renders the plan as a table, including the per-step phase
// split the precomputed schedule would achieve (offline = base OTs and
// OT-extension matrices, online = the remainder plus derandomization
// bits; see PlanStep).
func (p *Plan) Format(w io.Writer) {
	fmt.Fprintf(w, "root: %s; surviving nodes: %s; assumed OUT = %d\n",
		p.Root, strings.Join(p.Remaining, ", "), p.EstOut)
	fmt.Fprintf(w, "%-10s %-20s %-28s %10s %14s %14s %14s\n",
		"phase", "operator", "relation", "rows", "est. comm", "est. offline", "est. online")
	for _, s := range p.Steps {
		fmt.Fprintf(w, "%-10s %-20s %-28s %10d %14s %14s %14s\n", s.Phase, s.Op, s.Node, s.N,
			fmtBytes(s.EstBytes), fmtBytes(s.EstOfflineBytes), fmtBytes(s.EstOnlineBytes))
	}
	fmt.Fprintf(w, "total estimated communication: %s (precomputed: %s offline + %s online)\n",
		fmtBytes(p.EstBytes), fmtBytes(p.EstOfflineBytes), fmtBytes(p.EstOnlineBytes))
}

// fmtBytes prints a byte count in decimal units (1 kB = 1 000 B), as
// -analyze's totals, the benchmark and EXPERIMENTS do.
func fmtBytes(b int64) string {
	f := float64(b)
	units := []string{"B", "kB", "MB", "GB", "TB"}
	i := 0
	for f >= 1000 && i < len(units)-1 {
		f /= 1000
		i++
	}
	return fmt.Sprintf("%.1f %s", f, units[i])
}
