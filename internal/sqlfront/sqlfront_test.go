package sqlfront

import (
	"context"
	"strings"
	"testing"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/share"
)

func TestParseExample11(t *testing.T) {
	st, err := Parse(`
		SELECT r3.class, SUM(r2.cost * (100 - r1.coinsurance))
		FROM r1, r2, r3
		WHERE r1.person = r2.person AND r2.disease = r3.disease
		GROUP BY r3.class`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg != AggSum || len(st.AggFactors) != 2 {
		t.Fatalf("aggregate: %+v", st)
	}
	if len(st.Tables) != 3 || len(st.Joins) != 2 || len(st.GroupCols) != 1 {
		t.Fatalf("shape: %+v", st)
	}
	if st.AggFactors[1].Col.String() != "r1.coinsurance" || !st.AggFactors[1].MinusCol || st.AggFactors[1].Const != 100 {
		t.Fatalf("minus factor: %+v", st.AggFactors[1])
	}
}

func TestParseSelectionsAndDates(t *testing.T) {
	st, err := Parse(`
		SELECT COUNT(*) FROM orders, lineitem
		WHERE orders.orderkey = lineitem.orderkey
		  AND orders.orderdate < '1995-03-13'
		  AND lineitem.returnflag = 1
		  AND orders.custkey IN (3, 5, 8)`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg != AggCount || len(st.AggFactors) != 0 {
		t.Fatalf("count: %+v", st)
	}
	if len(st.Selections) != 3 {
		t.Fatalf("selections: %+v", st.Selections)
	}
	// 1995-03-13 is day 1167 since 1992-01-01.
	if st.Selections[0].Op != OpLt || st.Selections[0].Consts[0] != 1167 {
		t.Fatalf("date selection: %+v", st.Selections[0])
	}
	if st.Selections[2].Op != OpIn || len(st.Selections[2].Consts) != 3 {
		t.Fatalf("IN selection: %+v", st.Selections[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                                    // empty
		"SELECT FROM r1",                                      // no select list
		"SELECT r1.a FROM r1",                                 // no aggregate
		"SELECT SUM(r1.a) FROM",                               // missing table
		"SELECT SUM(r1.a) FROM r1 WHERE",                      // dangling where
		"SELECT SUM(r1.a), SUM(r1.b) FROM r1",                 // two aggregates
		"SELECT a, SUM(r1.a) FROM r1",                         // unqualified column
		"SELECT r1.g, SUM(r1.a) FROM r1",                      // group col without GROUP BY
		"SELECT SUM(r1.a) FROM r1 GROUP BY r1",                // malformed group by
		"SELECT SUM(r1.a) FROM r1 WHERE r1.a < r1.b",          // non-equality join
		"SELECT SUM(r1.a) FROM r1 WHERE r1.d > 'not-a-date'",  // bad date
		"SELECT r1.g, SUM(r1.a) FROM r1 GROUP BY r1.h",        // group mismatch
		"SELECT SUM(r1.a) FROM r1 extra",                      // trailing tokens
		"SELECT SUM((r1.a - 3)) FROM r1",                      // (col - const) unsupported
		"SELECT SUM(r1.a) FROM r1 WHERE r1.a = r1.b AND r1.a", // incomplete cond
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted invalid SQL: %s", src)
		}
	}
}

// catalogFor builds the Example 1.1 catalog on one party's side.
func catalogFor(role mpc.Role, r1, r2, r3 *relation.Relation) *Catalog {
	def := func(owner mpc.Role, rel *relation.Relation) *TableDef {
		d := &TableDef{Owner: owner, Columns: rel.Schema.Attrs, N: rel.Len()}
		if role == owner {
			d.Rel = rel
		}
		return d
	}
	return &Catalog{Tables: map[string]*TableDef{
		"r1": def(mpc.Alice, r1),
		"r2": def(mpc.Bob, r2),
		"r3": def(mpc.Alice, r3),
	}}
}

func example11Data() (r1, r2, r3 *relation.Relation) {
	r1 = relation.New(relation.MustSchema("person", "coinsurance"))
	r1.Append([]uint64{1, 20}, 1)
	r1.Append([]uint64{2, 50}, 1)
	r2 = relation.New(relation.MustSchema("person", "disease", "cost"))
	r2.Append([]uint64{1, 100, 1000}, 1)
	r2.Append([]uint64{2, 100, 2000}, 1)
	r2.Append([]uint64{2, 101, 500}, 1)
	r3 = relation.New(relation.MustSchema("disease", "class"))
	r3.Append([]uint64{100, 7}, 1)
	r3.Append([]uint64{101, 8}, 1)
	return
}

const example11SQL = `
	SELECT r3.class, SUM(r2.cost * (100 - r1.coinsurance))
	FROM r1, r2, r3
	WHERE r1.person = r2.person AND r2.disease = r3.disease
	GROUP BY r3.class`

func TestCompileAndExecEndToEnd(t *testing.T) {
	r1, r2, r3 := example11Data()
	st, err := Parse(example11SQL)
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := mpc.Pair(share.Ring{Bits: 32})
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	run := func(p *mpc.Party) (*relation.Relation, error) {
		c, err := Compile(st, catalogFor(p.Role, r1, r2, r3))
		if err != nil {
			return nil, err
		}
		if err := c.Check(); err != nil {
			return nil, err
		}
		return c.Exec(context.Background(), p, core.Options{})
	}
	res, bobRes, err := mpc.Run2PC(alice, bob, run, run)
	if err != nil {
		t.Fatal(err)
	}
	if bobRes != nil {
		t.Fatal("bob got output")
	}
	got := map[uint64]uint64{}
	for i := range res.Tuples {
		got[res.Tuples[i][0]] = res.Annot[i]
	}
	// class 7: 1000*80 + 2000*50 = 180000; class 8: 500*50 = 25000.
	if got[7] != 180000 || got[8] != 25000 {
		t.Fatalf("results: %v", got)
	}
}

func TestCompileAvgComposition(t *testing.T) {
	r1, r2, r3 := example11Data()
	st, err := Parse(`
		SELECT r3.class, AVG(r2.cost)
		FROM r1, r2, r3
		WHERE r1.person = r2.person AND r2.disease = r3.disease
		GROUP BY r3.class`)
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := mpc.Pair(share.Ring{Bits: 32})
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	run := func(p *mpc.Party) (*relation.Relation, error) {
		c, err := Compile(st, catalogFor(p.Role, r1, r2, r3))
		if err != nil {
			return nil, err
		}
		if !c.Avg {
			t.Error("AVG not detected")
		}
		return c.Exec(context.Background(), p, core.Options{})
	}
	res, _, err := mpc.Run2PC(alice, bob, run, run)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]uint64{}
	for i := range res.Tuples {
		got[res.Tuples[i][0]] = res.Annot[i]
	}
	// class 7: (1000+2000)/2 = 1500; class 8: 500/1 = 500.
	if got[7] != 1500 || got[8] != 500 {
		t.Fatalf("avg results: %v", got)
	}
}

func TestCompileWithSelections(t *testing.T) {
	r1, r2, r3 := example11Data()
	st, err := Parse(`
		SELECT r3.class, SUM(r2.cost)
		FROM r1, r2, r3
		WHERE r1.person = r2.person AND r2.disease = r3.disease
		  AND r2.cost > 600
		GROUP BY r3.class`)
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := mpc.Pair(share.Ring{Bits: 32})
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	run := func(p *mpc.Party) (*relation.Relation, error) {
		c, err := Compile(st, catalogFor(p.Role, r1, r2, r3))
		if err != nil {
			return nil, err
		}
		return c.Exec(context.Background(), p, core.Options{})
	}
	res, _, err := mpc.Run2PC(alice, bob, run, run)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]uint64{}
	for i := range res.Tuples {
		got[res.Tuples[i][0]] = res.Annot[i]
	}
	// cost > 600 keeps 1000 and 2000 (class 7); the 500 row (class 8)
	// becomes a dummy.
	if got[7] != 3000 || got[8] != 0 || len(got) != 1 {
		t.Fatalf("selection results: %v", got)
	}
}

func TestCompileErrors(t *testing.T) {
	r1, r2, r3 := example11Data()
	cat := catalogFor(mpc.Alice, r1, r2, r3)
	cases := []string{
		"SELECT SUM(r9.a) FROM r9",                                            // unknown table
		"SELECT SUM(r1.zzz) FROM r1",                                          // unknown column
		"SELECT r1.zzz, SUM(r1.coinsurance) FROM r1 GROUP BY r1.zzz",          // unknown group col
		"SELECT SUM(r1.coinsurance) FROM r1, r1",                              // duplicate table
		"SELECT SUM(r1.coinsurance) FROM r1, r2 WHERE r1.person = r2.zzz",     // unknown join col
		"SELECT SUM(r1.coinsurance) FROM r1 WHERE r1.person = r1.coinsurance", // self join
		"SELECT SUM(r1.coinsurance) FROM r1, r2 WHERE r1.zzz IN (1)",          // unknown sel col
	}
	for _, src := range cases {
		st, err := Parse(src)
		if err != nil {
			continue // some are parse-level errors, fine
		}
		if _, err := Compile(st, cat); err == nil {
			t.Errorf("compiled invalid SQL: %s", src)
		}
	}
}

func TestCheckRejectsNonFreeConnex(t *testing.T) {
	// Group by attributes of two relations joined on a non-output key.
	ra := relation.New(relation.MustSchema("k", "g1"))
	rb := relation.New(relation.MustSchema("k", "g2"))
	cat := &Catalog{Tables: map[string]*TableDef{
		"ra": {Owner: mpc.Alice, Columns: ra.Schema.Attrs, N: 0, Rel: ra},
		"rb": {Owner: mpc.Bob, Columns: rb.Schema.Attrs, N: 0},
	}}
	st, err := Parse(`SELECT ra.g1, rb.g2, SUM(ra.k) FROM ra, rb WHERE ra.k = rb.k GROUP BY ra.g1, rb.g2`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(st, cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(); err == nil || !strings.Contains(err.Error(), "free-connex") {
		t.Fatalf("expected free-connex rejection, got %v", err)
	}
}

func TestJoinColumnUnificationNames(t *testing.T) {
	r1, r2, r3 := example11Data()
	st, _ := Parse(example11SQL)
	c, err := Compile(st, catalogFor(mpc.Alice, r1, r2, r3))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Output) != 1 || c.Output[0] != "class" {
		t.Fatalf("output attrs: %v", c.Output)
	}
	// Every compiled table schema must use the unified names.
	for _, tb := range c.tables {
		for _, a := range tb.schema.Attrs {
			if a != "person" && a != "disease" && a != "class" {
				t.Fatalf("unexpected attribute %q in %s", a, tb.name)
			}
		}
	}
}
