package queries

import (
	"fmt"
	"sort"
	"testing"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/share"
	"secyan/internal/tpch"
)

// testDB is a tiny deterministic database: a fraction of a megabyte so
// the full 2PC protocols run in seconds.
func testDB(t *testing.T) *tpch.DB {
	t.Helper()
	return tpch.Generate(tpch.Config{ScaleMB: 0.12, Seed: 42})
}

func runSpec(t *testing.T, spec Spec, db *tpch.DB) (*relation.Relation, *relation.Relation) {
	t.Helper()
	if testing.Short() {
		t.Skipf("%s: full secure TPC-H run skipped in -short mode", spec.Name)
	}
	ring := share.Ring{Bits: 32}
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	secure, _, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*relation.Relation, error) { return spec.SecureOpts(p, db, core.Options{}) },
		func(p *mpc.Party) (*relation.Relation, error) { return spec.SecureOpts(p, db, core.Options{}) },
	)
	if err != nil {
		t.Fatalf("%s secure: %v", spec.Name, err)
	}
	plain, err := spec.Plain(db, ring.Bits)
	if err != nil {
		t.Fatalf("%s plain: %v", spec.Name, err)
	}
	return secure, plain
}

// rowsOf renders a relation as sorted "row=annotation" strings.
func rowsOf(r *relation.Relation) []string {
	var out []string
	for i := range r.Tuples {
		if r.Annot[i] == 0 || r.IsDummy(i) {
			continue
		}
		out = append(out, fmt.Sprintf("%v=%d", r.Tuples[i], r.Annot[i]))
	}
	sort.Strings(out)
	return out
}

func compare(t *testing.T, name string, secure, plain *relation.Relation) {
	t.Helper()
	s := rowsOf(secure)
	p := rowsOf(plain)
	if len(s) != len(p) {
		t.Fatalf("%s: secure has %d rows, plain has %d\nsecure: %v\nplain: %v", name, len(s), len(p), s, p)
	}
	for i := range s {
		if s[i] != p[i] {
			t.Fatalf("%s: row %d differs: secure %s, plain %s", name, i, s[i], p[i])
		}
	}
	if len(s) == 0 {
		t.Logf("%s: empty result at this scale (still a valid comparison)", name)
	}
}

func TestQ3SecureMatchesPlain(t *testing.T) {
	db := testDB(t)
	secure, plain := runSpec(t, Q3(), db)
	compare(t, "Q3", secure, plain)
	if plain.Len() == 0 {
		t.Fatal("Q3 produced no rows at test scale; selections too harsh for a meaningful test")
	}
}

func TestQ10SecureMatchesPlain(t *testing.T) {
	db := testDB(t)
	secure, plain := runSpec(t, Q10(), db)
	compare(t, "Q10", secure, plain)
	if plain.Len() == 0 {
		t.Fatal("Q10 produced no rows at test scale")
	}
}

func TestQ18SecureMatchesPlain(t *testing.T) {
	db := testDB(t)
	// Lower the threshold so the subquery matches at the tiny test scale.
	spec := Q18WithThreshold(120)
	secure, plain := runSpec(t, spec, db)
	compare(t, "Q18", secure, plain)
	if plain.Len() == 0 {
		t.Fatal("Q18 produced no rows at test scale; lower the threshold")
	}
}

func TestQ8SecureMatchesPlain(t *testing.T) {
	db := testDB(t)
	secure, plain := runSpec(t, Q8(), db)
	compare(t, "Q8", secure, plain)
}

func TestQ9SecureMatchesPlain(t *testing.T) {
	db := testDB(t)
	spec := Q9(2) // two nations keep the test fast; the full query is 25
	secure, plain := runSpec(t, spec, db)
	compare(t, "Q9", secure, plain)
}

func TestEffectiveBytesPositiveAndMonotone(t *testing.T) {
	small := tpch.Generate(tpch.Config{ScaleMB: 0.12, Seed: 1})
	big := tpch.Generate(tpch.Config{ScaleMB: 0.3, Seed: 1})
	for _, spec := range All() {
		a := spec.EffectiveBytes(small)
		b := spec.EffectiveBytes(big)
		if a <= 0 || b <= a {
			t.Errorf("%s: effective bytes not positive/monotone: %d, %d", spec.Name, a, b)
		}
	}
}

func TestAllSpecsHaveFigures(t *testing.T) {
	want := map[string]int{"Q3": 2, "Q10": 3, "Q18": 4, "Q8": 5, "Q9": 6}
	for _, spec := range All() {
		if spec.Figure != want[spec.Name] {
			t.Errorf("%s: figure %d, want %d", spec.Name, spec.Figure, want[spec.Name])
		}
		if spec.Description == "" {
			t.Errorf("%s: missing description", spec.Name)
		}
	}
}

func TestExtraQueriesSecureMatchesPlain(t *testing.T) {
	db := testDB(t)
	for _, spec := range Extra() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			secure, plain := runSpec(t, spec, db)
			compare(t, spec.Name, secure, plain)
		})
	}
}

func TestExtraSpecsMetadata(t *testing.T) {
	for _, spec := range Extra() {
		if spec.Figure != 0 {
			t.Errorf("%s: extra queries must not claim a paper figure", spec.Name)
		}
		if spec.EffectiveBytes(testDB(t)) <= 0 {
			t.Errorf("%s: effective bytes", spec.Name)
		}
	}
}

func TestPlanForCoversAllSpecs(t *testing.T) {
	db := tpch.Generate(tpch.Config{ScaleMB: 0.05, Seed: 1})
	for _, spec := range append(All(), Extra()...) {
		q, err := PlanFor(spec, db)
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		if _, err := q.Hypergraph().Plan(q.Output); err != nil {
			t.Errorf("%s: plan shape not plannable: %v", spec.Name, err)
		}
	}
	if _, err := PlanFor(Spec{Name: "nope"}, db); err == nil {
		t.Error("unknown spec accepted")
	}
}
