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
	"secyan/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite the golden plan files under testdata/")

// goldenEstOut fixes the assumed output size so the rendered estimates
// are deterministic; 16 is representative of the test-scale results.
const goldenEstOut = 16

// TestGoldenPlans pins the rendered execution plan of every TPC-H query
// at the shared test scale, and, in whole bytes, every step's estimates
// (the rendered plan rounds to 0.1 KB/MB, which hides drifts of many
// KB) — also with every input secret-shared. Any change to the plan compiler — step
// order, operator naming, cost model — shows up as a readable diff
// here; regenerate with `go test ./internal/queries -run Golden -update`
// after reviewing it.
func TestGoldenPlans(t *testing.T) {
	db := testDB(t)
	for _, spec := range goldenSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			plan, noOpt := goldenPlans(t, spec, db)
			var plain, exact bytes.Buffer
			plan.Format(&plain)
			formatBytes(&exact, plan)
			fmt.Fprintf(&exact, "\nno local optimizations:\n")
			formatBytes(&exact, noOpt)
			base := filepath.Join("testdata", strings.ToLower(spec.Name))
			compareGolden(t, spec.Name, base+".plan.txt", plain.Bytes())
			compareGolden(t, spec.Name, base+".bytes.txt", exact.Bytes())
		})
	}
}

// TestOnlineBytesWithinDirect pins what precomputation buys online on
// the ten golden plans: no step's online bill (its pooled batches'
// derandomization bits and everything not pooled) exceeds its direct
// bill.
func TestOnlineBytesWithinDirect(t *testing.T) {
	db := testDB(t)
	for _, spec := range goldenSpecs() {
		plan, noOpt := goldenPlans(t, spec, db)
		for _, p := range []*core.Plan{plan, noOpt} {
			for i, s := range p.Steps {
				if s.EstOnlineBytes > s.EstBytes {
					t.Errorf("%s step %d %s[%s]: online %d B > direct %d B", spec.Name, i, s.Op, s.Node, s.EstOnlineBytes, s.EstBytes)
				}
			}
		}
	}
}

// goldenSpecs are the queries the golden files pin.
func goldenSpecs() []Spec { return []Spec{Q3(), Q10(), q18WithThreshold(120), Q8(), Q9(2)} }

// goldenPlans compiles spec's plan on db, and the same plan with every
// input secret-shared, the one that takes the shared-input operator
// paths.
func goldenPlans(t *testing.T, spec Spec, db *tpch.DB) (plan, noOpt *core.Plan) {
	t.Helper()
	q, err := PlanFor(spec, db)
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = core.ExplainOpts(q, 32, core.Options{EstOut: goldenEstOut}); err != nil {
		t.Fatal(err)
	}
	shared := *q
	shared.NoLocalOptimizations = true
	if noOpt, err = core.ExplainOpts(&shared, 32, core.Options{EstOut: goldenEstOut}); err != nil {
		t.Fatal(err)
	}
	return plan, noOpt
}

// formatBytes lists plan's estimates in whole bytes: per step its
// EstBytes, EstOfflineBytes and EstOnlineBytes, then the plan totals.
func formatBytes(buf *bytes.Buffer, plan *core.Plan) {
	for i, s := range plan.Steps {
		fmt.Fprintf(buf, "%2d %s/%s[%s] est=%d offline=%d online=%d\n",
			i, s.Phase, s.Op, s.Node, s.EstBytes, s.EstOfflineBytes, s.EstOnlineBytes)
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
