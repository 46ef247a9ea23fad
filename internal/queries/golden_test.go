package queries

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secyan/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden plan files under testdata/")

// goldenEstOut fixes the assumed output size so the rendered estimates
// are deterministic; 16 is representative of the test-scale results.
const goldenEstOut = 16

// TestGoldenPlans pins the rendered execution plan of every TPC-H query
// at the shared test scale, and, in whole bytes, every step's estimates
// and every auction bid (the rendered plan rounds to 0.1 KB/MB, which
// hides drifts of many KB) — also with the gc backend forced and with
// every input secret-shared. Any change to the plan compiler — step
// order, operator naming, cost model — shows up as a readable diff
// here; regenerate with `go test ./internal/queries -run Golden -update`
// after reviewing it.
func TestGoldenPlans(t *testing.T) {
	db := testDB(t)
	for _, spec := range []Spec{Q3(), Q10(), Q18WithThreshold(120), Q8(), Q9(2)} {
		t.Run(spec.Name, func(t *testing.T) {
			q, err := PlanFor(spec, db)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := core.ExplainOpts(q, 32, core.Options{EstOut: goldenEstOut})
			if err != nil {
				t.Fatal(err)
			}
			var plain, exact bytes.Buffer
			plan.Format(&plain)
			formatBytes(&exact, plan)
			// The whole-byte listing also pins the plans that take the
			// other operator paths: every step on the gc backend where it
			// bids, and every input secret-shared.
			forced, err := core.ExplainOpts(q, 32, core.Options{EstOut: goldenEstOut, Backend: core.BackendGC})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&exact, "\nbackend gc:\n")
			formatBytes(&exact, forced)
			shared := *q
			shared.NoLocalOptimizations = true
			noOpt, err := core.ExplainOpts(&shared, 32, core.Options{EstOut: goldenEstOut})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&exact, "\nno local optimizations:\n")
			formatBytes(&exact, noOpt)
			base := filepath.Join("testdata", strings.ToLower(spec.Name))
			compareGolden(t, spec.Name, base+".plan.txt", plain.Bytes())
			compareGolden(t, spec.Name, base+".bytes.txt", exact.Bytes())
		})
	}
}

// formatBytes lists plan's estimates in whole bytes: per step its
// EstBytes, EstOfflineBytes and EstOnlineBytes, then every bid of its
// backend auction (* marks the winner), then the plan totals.
func formatBytes(buf *bytes.Buffer, plan *core.Plan) {
	for i, s := range plan.Steps {
		fmt.Fprintf(buf, "%2d %s/%s[%s] est=%d offline=%d online=%d\n",
			i, s.Phase, s.Op, s.Node, s.EstBytes, s.EstOfflineBytes, s.EstOnlineBytes)
		for _, a := range s.Alternatives {
			mark := " "
			if a.Chosen {
				mark = "*"
			}
			fmt.Fprintf(buf, "   %s%s=%d\n", mark, a.Backend, a.EstBytes)
		}
	}
	fmt.Fprintf(buf, "total est=%d offline=%d online=%d\n", plan.EstBytes, plan.EstOfflineBytes, plan.EstOnlineBytes)
}

// compareGolden compares got against the golden file at path, or
// rewrites the file under -update.
func compareGolden(t *testing.T, name, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s plan drifted from %s (re-run with -update after review):\ngot:\n%swant:\n%s",
			name, path, got, want)
	}
}
