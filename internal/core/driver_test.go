package core

import (
	"fmt"
	"math/rand"
	"testing"

	"secyan/internal/jointree"
	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/transport"
	"secyan/internal/yannakakis"
)

// runSecure executes the full secure Yannakakis protocol on fresh parties
// and returns Alice's result.
func runSecure(t *testing.T, q *Query, rels []*relation.Relation) *relation.Relation {
	t.Helper()
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	queryFor := func(role mpc.Role) *Query {
		cq := &Query{Output: q.Output}
		for i, in := range q.Inputs {
			ci := in
			if in.Owner == role {
				ci.Rel = rels[i]
			} else {
				ci.Rel = nil
			}
			cq.Inputs = append(cq.Inputs, ci)
		}
		return cq
	}
	res, _, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*relation.Relation, error) { return runQuery(p, queryFor(mpc.Alice)) },
		func(p *mpc.Party) (*relation.Relation, error) { return runQuery(p, queryFor(mpc.Bob)) },
	)
	if err != nil {
		t.Fatalf("secure run: %v", err)
	}
	return res
}

// plaintextReference evaluates the same query with the plaintext engine.
func plaintextReference(t *testing.T, q *Query, rels []*relation.Relation) *relation.Relation {
	t.Helper()
	tree, err := q.Hypergraph().Plan(q.Output)
	if err != nil {
		t.Fatal(err)
	}
	res, err := yannakakis.Run(tree, rels, q.Output, relation.RingSemiring{Bits: testRing.Bits})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func resultMap(r *relation.Relation) map[string]uint64 {
	out := map[string]uint64{}
	for i := range r.Tuples {
		if r.Annot[i] == 0 || r.IsDummy(i) {
			continue
		}
		key := ""
		for _, v := range r.Tuples[i] {
			key += string(rune(v%97)) + "·"
			key += string(rune(v/97%97)) + "|"
		}
		out[key] += r.Annot[i]
	}
	return out
}

func compareResults(t *testing.T, name string, got, want *relation.Relation) {
	t.Helper()
	g, w := resultMap(got), resultMap(want)
	if len(g) != len(w) {
		t.Fatalf("%s: result sizes differ: secure %d vs plaintext %d\nsecure:\n%v\nplaintext:\n%v",
			name, len(g), len(w), got, want)
	}
	for k, v := range w {
		if g[k] != v {
			t.Fatalf("%s: row %q: secure %d, plaintext %d", name, k, g[k], v)
		}
	}
}

// example11Query is the paper's running example with the relations split
// between the insurance company (Alice: R1, R3) and the hospital (Bob:
// R2).
func example11Query(rng *rand.Rand, nPersons, nRecords int) (*Query, []*relation.Relation) {
	r1 := relation.New(relation.MustSchema("person", "coinsurance"))
	for i := 0; i < nPersons; i++ {
		r1.Append([]uint64{uint64(i), uint64(rng.Intn(100))}, uint64(rng.Intn(100)))
	}
	r2 := relation.New(relation.MustSchema("person", "disease"))
	for i := 0; i < nRecords; i++ {
		r2.Append([]uint64{uint64(rng.Intn(nPersons + 3)), uint64(rng.Intn(5))}, uint64(rng.Intn(1000)))
	}
	r3 := relation.New(relation.MustSchema("disease", "class"))
	for d := 0; d < 4; d++ { // disease 4 is unclassified
		r3.Append([]uint64{uint64(d), uint64(d % 2)}, 1)
	}
	q := &Query{
		Inputs: []Input{
			{Name: "insurance", Owner: mpc.Alice, Schema: r1.Schema, N: r1.Len()},
			{Name: "records", Owner: mpc.Bob, Schema: r2.Schema, N: r2.Len()},
			{Name: "classes", Owner: mpc.Alice, Schema: r3.Schema, N: r3.Len()},
		},
		Output: []relation.Attr{"class"},
	}
	return q, []*relation.Relation{r1, r2, r3}
}

func TestSecureExample11MatchesPlaintext(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q, rels := example11Query(rng, 12, 20)
	got := runSecure(t, q, rels)
	want := plaintextReference(t, q, rels)
	compareResults(t, "example 1.1", got, want)
}

func TestSecureMultiNodeJoinPhase(t *testing.T) {
	// A query where every attribute is an output attribute, so the reduce
	// phase folds nothing and the semijoin + oblivious join phases
	// actually run: R1(g1,k) ⋈ R2(k,m) ⋈ R3(m,g2), output all attrs.
	rng := rand.New(rand.NewSource(9))
	r1 := relation.New(relation.MustSchema("g1", "k"))
	r2 := relation.New(relation.MustSchema("k", "m"))
	r3 := relation.New(relation.MustSchema("m", "g2"))
	for i := 0; i < 10; i++ {
		r1.Append([]uint64{uint64(rng.Intn(3)), uint64(rng.Intn(5))}, uint64(rng.Intn(20)))
		r2.Append([]uint64{uint64(rng.Intn(5)), uint64(rng.Intn(5))}, uint64(rng.Intn(20)))
		r3.Append([]uint64{uint64(rng.Intn(5)), uint64(rng.Intn(3))}, uint64(rng.Intn(20)))
	}
	for _, owners := range [][3]mpc.Role{
		{mpc.Alice, mpc.Bob, mpc.Alice},
		{mpc.Bob, mpc.Alice, mpc.Bob},
		{mpc.Bob, mpc.Bob, mpc.Bob},
	} {
		q := &Query{
			Inputs: []Input{
				{Name: "R1", Owner: owners[0], Schema: r1.Schema, N: r1.Len()},
				{Name: "R2", Owner: owners[1], Schema: r2.Schema, N: r2.Len()},
				{Name: "R3", Owner: owners[2], Schema: r3.Schema, N: r3.Len()},
			},
			Output: []relation.Attr{"g1", "k", "m", "g2"},
		}
		rels := []*relation.Relation{r1, r2, r3}
		got := runSecure(t, q, rels)
		want := plaintextReference(t, q, rels)
		compareResults(t, "multi-node", got, want)
	}
}

func TestSecureFullAggregate(t *testing.T) {
	// O = ∅: a single COUNT-style aggregate over a two-way join.
	rng := rand.New(rand.NewSource(11))
	r1 := relation.New(relation.MustSchema("k"))
	r2 := relation.New(relation.MustSchema("k"))
	for i := 0; i < 15; i++ {
		r1.Append([]uint64{uint64(rng.Intn(8))}, 1)
		r2.Append([]uint64{uint64(rng.Intn(8))}, 1)
	}
	q := &Query{
		Inputs: []Input{
			{Name: "R1", Owner: mpc.Alice, Schema: r1.Schema, N: r1.Len()},
			{Name: "R2", Owner: mpc.Bob, Schema: r2.Schema, N: r2.Len()},
		},
		Output: nil,
	}
	rels := []*relation.Relation{r1, r2}
	got := runSecure(t, q, rels)
	want := plaintextReference(t, q, rels)
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("join count rows: %d vs %d", got.Len(), want.Len())
	}
	if got.Len() == 1 && got.Annot[0] != want.Annot[0] {
		t.Fatalf("join count: secure %d, plaintext %d", got.Annot[0], want.Annot[0])
	}
}

func TestSecureWithDummyPaddedSelections(t *testing.T) {
	// Private selection (§7 option 2): tuples failing the predicate are
	// replaced by zero-annotated dummies before the protocol.
	rng := rand.New(rand.NewSource(13))
	var dg relation.DummyGen
	r1 := relation.New(relation.MustSchema("k", "s"))
	r2 := relation.New(relation.MustSchema("k"))
	for i := 0; i < 12; i++ {
		r1.Append([]uint64{uint64(rng.Intn(6)), uint64(rng.Intn(2))}, uint64(1+rng.Intn(9)))
		r2.Append([]uint64{uint64(rng.Intn(6))}, 1)
	}
	filtered := relation.New(r1.Schema)
	for i, row := range r1.Tuples {
		if row[1] == 1 {
			filtered.Append(row, r1.Annot[i])
		} else {
			filtered.Append([]uint64{dg.Next(), dg.Next()}, 0)
		}
	}
	q := &Query{
		Inputs: []Input{
			{Name: "R1", Owner: mpc.Bob, Schema: filtered.Schema, N: filtered.Len()},
			{Name: "R2", Owner: mpc.Alice, Schema: r2.Schema, N: r2.Len()},
		},
		Output: []relation.Attr{"k"},
	}
	rels := []*relation.Relation{filtered, r2}
	got := runSecure(t, q, rels)
	want := plaintextReference(t, q, rels)
	compareResults(t, "selection", got, want)
}

func TestSecureFiveRelationChain(t *testing.T) {
	// The Figure 1 query with O = {B,D,E,F}, relations alternating owners.
	rng := rand.New(rand.NewSource(17))
	schemas := []relation.Schema{
		relation.MustSchema("A", "B"),
		relation.MustSchema("A", "C"),
		relation.MustSchema("B", "D", "F"),
		relation.MustSchema("D", "F", "G"),
		relation.MustSchema("B", "E"),
	}
	rels := make([]*relation.Relation, 5)
	for i, s := range schemas {
		rels[i] = relation.New(s)
		for j := 0; j < 8; j++ {
			row := make([]uint64, len(s.Attrs))
			for c := range row {
				row[c] = uint64(rng.Intn(4))
			}
			rels[i].Append(row, uint64(rng.Intn(5)))
		}
	}
	q := &Query{Output: []relation.Attr{"B", "D", "E", "F"}}
	names := []string{"R1", "R2", "R3", "R4", "R5"}
	for i := range rels {
		owner := mpc.Alice
		if i%2 == 1 {
			owner = mpc.Bob
		}
		q.Inputs = append(q.Inputs, Input{Name: names[i], Owner: owner, Schema: schemas[i], N: rels[i].Len()})
	}
	got := runSecure(t, q, rels)
	want := plaintextReference(t, q, rels)
	compareResults(t, "figure 1", got, want)
}

func TestQueryValidation(t *testing.T) {
	q := &Query{}
	if err := q.Validate(mpc.Alice); err == nil {
		t.Error("empty query accepted")
	}
	r := relation.New(relation.MustSchema("a"))
	q = &Query{Inputs: []Input{{Name: "R", Owner: mpc.Alice, Schema: r.Schema, N: 5, Rel: r}}}
	if err := q.Validate(mpc.Alice); err == nil {
		t.Error("size mismatch accepted")
	}
	q = &Query{Inputs: []Input{{Name: "R", Owner: mpc.Bob, Schema: r.Schema, N: 0, Rel: r}}}
	if err := q.Validate(mpc.Alice); err == nil {
		t.Error("non-owner holding relation accepted")
	}
}

// TestTranscriptObliviousness checks the core security property the
// protocol design enforces: two executions over different private data of
// identical public dimensions produce byte-identical traffic *sizes*.
func TestTranscriptObliviousness(t *testing.T) {
	run := func(seed int64) (sent, recv int64) {
		rng := rand.New(rand.NewSource(seed))
		q, rels := example11Query(rng, 10, 16)
		alice, bob := mpc.Pair(testRing)
		defer alice.Conn.Close()
		defer bob.Conn.Close()
		queryFor := func(role mpc.Role) *Query {
			cq := &Query{Output: q.Output}
			for i, in := range q.Inputs {
				ci := in
				if in.Owner == role {
					ci.Rel = rels[i]
				} else {
					ci.Rel = nil
				}
				cq.Inputs = append(cq.Inputs, ci)
			}
			return cq
		}
		_, _, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) (*relation.Relation, error) { return runQuery(p, queryFor(mpc.Alice)) },
			func(p *mpc.Party) (*relation.Relation, error) { return runQuery(p, queryFor(mpc.Bob)) },
		)
		if err != nil {
			t.Fatal(err)
		}
		st := alice.Conn.Stats()
		return st.BytesSent, st.BytesReceived
	}
	s1, r1 := run(100)
	s2, r2 := run(200)
	if s1 != s2 || r1 != r2 {
		t.Fatalf("transcript sizes depend on private data: (%d,%d) vs (%d,%d)", s1, r1, s2, r2)
	}
}

// TestPostOrderPublicAgreement double-checks that both parties derive the
// same plan deterministically (a prerequisite for the protocol to stay in
// lockstep).
func TestPostOrderPublicAgreement(t *testing.T) {
	q, _ := example11Query(rand.New(rand.NewSource(1)), 5, 5)
	t1, err := q.Hypergraph().Plan(q.Output)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := q.Hypergraph().Plan(q.Output)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Root != t2.Root || len(t1.PostOrder) != len(t2.PostOrder) {
		t.Fatal("plan not deterministic")
	}
	for i := range t1.PostOrder {
		if t1.PostOrder[i] != t2.PostOrder[i] {
			t.Fatal("post-order not deterministic")
		}
	}
	_ = jointree.ErrCyclic
	_ = transport.ErrClosed
}

// TestLocalOptimizationEquivalence runs the same query with and without
// the §6.5 fast paths and checks both the results and that the optimized
// run transfers strictly fewer bytes.
func TestLocalOptimizationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q, rels := example11Query(rng, 10, 16)

	runWith := func(noOpt bool) (*relation.Relation, int64) {
		alice, bob := mpc.Pair(testRing)
		defer alice.Conn.Close()
		defer bob.Conn.Close()
		queryFor := func(role mpc.Role) *Query {
			cq := &Query{Output: q.Output, NoLocalOptimizations: noOpt}
			for i, in := range q.Inputs {
				ci := in
				if in.Owner == role {
					ci.Rel = rels[i]
				} else {
					ci.Rel = nil
				}
				cq.Inputs = append(cq.Inputs, ci)
			}
			return cq
		}
		res, _, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) (*relation.Relation, error) { return runQuery(p, queryFor(mpc.Alice)) },
			func(p *mpc.Party) (*relation.Relation, error) { return runQuery(p, queryFor(mpc.Bob)) },
		)
		if err != nil {
			t.Fatalf("noOpt=%v: %v", noOpt, err)
		}
		return res, alice.Conn.Stats().TotalBytes()
	}

	optimized, optBytes := runWith(false)
	unoptimized, rawBytes := runWith(true)
	compareResults(t, "local-opt", optimized, unoptimized)
	if optBytes >= rawBytes {
		t.Fatalf("optimization did not reduce traffic: %d vs %d bytes", optBytes, rawBytes)
	}
	t.Logf("§6.5 optimization: %d bytes vs %d bytes (%.1fx reduction)",
		optBytes, rawBytes, float64(rawBytes)/float64(optBytes))
}

// TestPlainOperatorsMatchShared exercises Aggregate and ProjectOne on a
// plain-annotation relation against the share-based path.
func TestPlainOperatorsMatchShared(t *testing.T) {
	rel := relation.New(relation.MustSchema("g"))
	rel.Append([]uint64{3}, 4)
	rel.Append([]uint64{1}, 5)
	rel.Append([]uint64{3}, 6)
	rel.Append([]uint64{2}, 0)

	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	do := func(p *mpc.Party) (map[uint64][2]uint64, error) {
		var r *relation.Relation
		if p.Role == mpc.Bob {
			r = rel
		}
		sr, err := NewPlainInput(p, mpc.Bob, r, rel.Schema, rel.Len())
		if err != nil {
			return nil, err
		}
		var dg relation.DummyGen
		agg, err := Aggregate(p, &dg, sr, []A{"g"})
		if err != nil {
			return nil, err
		}
		ind, err := ProjectOne(p, &dg, sr, []A{"g"})
		if err != nil {
			return nil, err
		}
		if !agg.Plain || !ind.Plain {
			return nil, fmt.Errorf("plain outputs must stay plain")
		}
		if p.Role != mpc.Bob {
			return nil, nil
		}
		out := map[uint64][2]uint64{}
		for i := range agg.Rel.Tuples {
			if !agg.Rel.IsDummy(i) {
				out[agg.Rel.Tuples[i][0]] = [2]uint64{agg.Annot[i], 0}
			}
		}
		for i := range ind.Rel.Tuples {
			if !ind.Rel.IsDummy(i) {
				v := out[ind.Rel.Tuples[i][0]]
				v[1] = ind.Annot[i]
				out[ind.Rel.Tuples[i][0]] = v
			}
		}
		return out, nil
	}
	_, got, err := mpc.Run2PC(alice, bob, do, do)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][2]uint64{1: {5, 1}, 2: {0, 0}, 3: {10, 1}}
	for g, w := range want {
		if got[g] != w {
			t.Fatalf("group %d: got %v, want %v", g, got[g], w)
		}
	}
	// The plain path must cost zero communication.
	if alice.Conn.Stats().TotalBytes() != 0 {
		t.Fatalf("plain aggregation transferred %d bytes", alice.Conn.Stats().TotalBytes())
	}
}

// TestBeyondConditionTwoQuery runs a query that is free-connex in the
// textbook sense (H ∪ {O} acyclic) but admits NO join tree satisfying
// the paper's condition (2) — the planner's reduce-simulation fallback
// plus the driver's surviving-node aggregation handle it. Shape found by
// the jointree property tests: R0(ab,ac,ad), R1(ac,ad), R2(ac,ae,af),
// R3(af,ag,ah), R4(ac,ae,af,ai) with O = {ab,ac,ae}.
func TestBeyondConditionTwoQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	schemas := []relation.Schema{
		relation.MustSchema("ab", "ac", "ad"),
		relation.MustSchema("ac", "ad"),
		relation.MustSchema("ac", "ae", "af"),
		relation.MustSchema("af", "ag", "ah"),
		relation.MustSchema("ac", "ae", "af", "ai"),
	}
	rels := make([]*relation.Relation, len(schemas))
	for i, s := range schemas {
		rels[i] = relation.New(s)
		for j := 0; j < 8; j++ {
			row := make([]uint64, len(s.Attrs))
			for c := range row {
				row[c] = uint64(rng.Intn(3))
			}
			rels[i].Append(row, uint64(rng.Intn(6)))
		}
	}
	q := &Query{Output: []relation.Attr{"ab", "ac", "ae"}}
	owners := []mpc.Role{mpc.Alice, mpc.Bob, mpc.Alice, mpc.Bob, mpc.Alice}
	for i := range rels {
		q.Inputs = append(q.Inputs, Input{
			Name: fmt.Sprintf("R%d", i), Owner: owners[i], Schema: schemas[i], N: rels[i].Len()})
	}
	got := runSecure(t, q, rels)
	want := plaintextReference(t, q, rels)
	compareResults(t, "beyond-condition-2", got, want)
}
