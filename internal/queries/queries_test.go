package queries

import (
	"fmt"
	"runtime"
	"slices"
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
	spec := q18WithThreshold(120)
	secure, plain := runSpec(t, spec, db)
	compare(t, "Q18", secure, plain)
	if plain.Len() == 0 {
		t.Fatal("Q18 produced no rows at test scale; lower the threshold")
	}
}

// TestQ8SecureMatchesPlain runs Q8 on a database where its market shares
// are nonzero (testDB's Q8 result is empty), so that the ratio's scale
// and division show in the comparison.
func TestQ8SecureMatchesPlain(t *testing.T) {
	db := tpch.Generate(tpch.Config{ScaleMB: 0.2, Seed: 40})
	secure, plain := runSpec(t, Q8(), db)
	compare(t, "Q8", secure, plain)
	if plain.Len() == 0 || slices.Max(plain.Annot) == 0 {
		t.Fatalf("Q8's plaintext shares are %v; the comparison needs a nonzero one", rowsOf(plain))
	}
}

// TestQ9SecureMatchesPlain runs Q9 on a database where it has rows
// (testDB's Q9 result is empty), so that a wrong Subtract shows.
func TestQ9SecureMatchesPlain(t *testing.T) {
	db := tpch.Generate(tpch.Config{ScaleMB: 0.12, Seed: 13})
	spec := Q9(2) // two nations keep the test fast; the full query is 25
	secure, plain := runSpec(t, spec, db)
	compare(t, "Q9", secure, plain)
	if plain.Len() == 0 {
		t.Fatal("Q9 produced no rows; the comparison needs some")
	}
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

// TestExtraQueriesSecureMatchesPlain runs every extra query on testDB,
// and Q14 also at seed 37, where its promo revenue times the scale 100
// passes 2^32, so a ratio that wraps shows.
func TestExtraQueriesSecureMatchesPlain(t *testing.T) {
	db := testDB(t)
	for _, spec := range Extra() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			secure, plain := runSpec(t, spec, db)
			compare(t, spec.Name, secure, plain)
		})
		if spec.Name != "Q14" {
			continue
		}
		t.Run("Q14-seed37", func(t *testing.T) {
			secure, plain := runSpec(t, spec, tpch.Generate(tpch.Config{ScaleMB: 0.12, Seed: 37}))
			compare(t, spec.Name, secure, plain)
			if plain.Len() == 0 || slices.Max(plain.Annot) == 0 {
				t.Fatalf("Q14's plaintext share is %v; the comparison needs a nonzero one", rowsOf(plain))
			}
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

// TestPartyViewMasksOnlyOwnRelations builds each party's view of Q3, Q10
// and Q18: the view attaches exactly the party's own relations, each
// equal to the whole description's, and building it must not run the
// peer's masks. A nil Rel could hide a mask that ran and was dropped, so
// the test also bounds what the view allocates: the whole description
// less at least 90 % of the peer's masks.
func TestPartyViewMasksOnlyOwnRelations(t *testing.T) {
	db := testDB(t)
	alloc := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	builders := map[string]func(*tpch.DB, view) *core.Query{
		"Q3":  q3Query,
		"Q10": q10Query,
		"Q18": func(db *tpch.DB, v view) *core.Query { return q18Query(db, Q18Threshold, v) },
	}
	for name, build := range builders {
		full := build(db, whole)
		for _, role := range []mpc.Role{mpc.Alice, mpc.Bob} {
			own := build(db, viewOf(role))
			want := full.For(role)
			for i, in := range own.Inputs {
				w := want.Inputs[i]
				if in.Name != w.Name || in.Owner != w.Owner || in.N != w.N || !slices.Equal(in.Schema.Attrs, w.Schema.Attrs) {
					t.Fatalf("%s %v input %d: %+v, want %+v", name, role, i, in, w)
				}
				if (in.Rel == nil) != (w.Rel == nil) {
					t.Fatalf("%s %v input %s: attached %v, want %v", name, role, in.Name, in.Rel != nil, w.Rel != nil)
				}
				if in.Rel != nil && !slices.Equal(rowsOf(in.Rel), rowsOf(w.Rel)) {
					t.Fatalf("%s %v input %s: relation differs from the whole description's", name, role, in.Name)
				}
			}
		}
	}

	// Q3: Alice owns customer and lineitem, Bob orders.
	var dg relation.DummyGen
	ordersMask := alloc(func() {
		maskProject(db.Orders, []Attr{"orderkey", "custkey", "orderdate", "shippriority"}, nil, one, &dg)
	})
	aliceMasks := alloc(func() {
		maskProject(db.Customer, []Attr{"custkey"}, nil, one, &dg)
		maskProject(db.Lineitem, []Attr{"orderkey"}, nil, one, &dg)
	})
	wholeQ3 := alloc(func() { q3Query(db, whole) })
	for _, c := range []struct {
		role mpc.Role
		peer int64
	}{{mpc.Alice, ordersMask}, {mpc.Bob, aliceMasks}} {
		got := alloc(func() { q3Query(db, viewOf(c.role)) })
		if limit := wholeQ3 - c.peer*9/10; got > limit {
			t.Errorf("Q3 %v view allocates %d B, want ≤ %d B (whole %d B, peer's masks %d B)", c.role, got, limit, wholeQ3, c.peer)
		}
	}
}
