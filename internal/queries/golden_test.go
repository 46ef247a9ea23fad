package queries

import (
	"bytes"
	"flag"
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
// at the shared test scale. Any change to the plan compiler — step
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
			var buf bytes.Buffer
			plan.Format(&buf)
			path := filepath.Join("testdata", strings.ToLower(spec.Name)+".plan.txt")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s plan drifted from %s (re-run with -update after review):\ngot:\n%swant:\n%s",
					spec.Name, path, buf.String(), want)
			}
		})
	}
}
