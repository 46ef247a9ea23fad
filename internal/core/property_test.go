package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/transport"
)

// Property-based safety net for the secure operators (ROADMAP 5c, 7(a),
// 7(b)): seeded random free-connex queries the suite did not hand-write,
// run through the cold and precomputed paths
// over two databases of the same public shape, each run checked against
// the plaintext engine and the two databases' plans and transcripts
// checked against each other. The PSI and the share multiplication sit
// under every semijoin, so this is the net a change to either falls
// into.

// randomQuery draws a join tree of 2–4 relations — every edge a join
// attribute shared by its endpoints, some relations with an attribute of
// their own — with random owners and sizes down to empty, an output set
// the planner accepts, and a database for it (randomData).
func randomQuery(rng *rand.Rand) *Query {
	for {
		k := 2 + rng.Intn(3)
		attrs := make([][]relation.Attr, k)
		for i := 1; i < k; i++ {
			a := relation.Attr(fmt.Sprintf("j%d", i))
			parent := rng.Intn(i)
			attrs[i] = append(attrs[i], a)
			attrs[parent] = append(attrs[parent], a)
		}
		var all []relation.Attr
		for i := range attrs {
			if rng.Intn(2) == 0 {
				attrs[i] = append(attrs[i], relation.Attr(fmt.Sprintf("g%d", i)))
			}
			all = append(all, attrs[i]...)
		}
		q := &Query{NoLocalOptimizations: rng.Intn(4) == 0}
		seen := map[relation.Attr]bool{}
		for _, a := range all {
			if !seen[a] && rng.Intn(3) == 0 {
				q.Output = append(q.Output, a)
			}
			seen[a] = true
		}
		for i := range attrs {
			n := rng.Intn(25)
			if rng.Intn(8) == 0 {
				n = 0
			}
			q.Inputs = append(q.Inputs, Input{Name: fmt.Sprintf("R%d", i), Owner: mpc.Role(rng.Intn(2)),
				Schema: relation.MustSchema(attrs[i]...), N: n})
		}
		if _, err := q.Hypergraph().Plan(q.Output); err == nil {
			return randomData(rng, q)
		}
	}
}

// randomData describes q over a fresh database of its public shape
// (schemas, sizes).
// Data varies what the operators are sensitive to: the key domain (from
// nearly every key colliding to nearly none), relations whose every
// tuple is a zero-annotated dummy, and annotations that overflow the
// ring in every product.
func randomData(rng *rand.Rand, q *Query) *Query {
	domain := uint64(2 + rng.Intn(1+rng.Intn(40)))
	d := q.Shape()
	for i, in := range d.Inputs {
		rel := relation.New(in.Schema)
		for r := 0; r < in.N; r++ {
			row := make([]uint64, len(in.Schema.Attrs))
			for c := range row {
				row[c] = rng.Uint64() % domain
			}
			annot := uint64(rng.Intn(5))
			if rng.Intn(2) == 0 {
				annot = rng.Uint64() & (1<<uint(testRing.Bits) - 1)
			}
			rel.Append(row, annot)
		}
		if rng.Intn(8) == 0 {
			var dg relation.DummyGen
			// No row passes, so only the width of cols matters.
			allDummies := func([]uint64) bool { return false }
			rel = rel.Mask(in.Schema, make([]int, len(in.Schema.Attrs)), allDummies, nil, &dg)
		}
		d.Inputs[i].Rel = rel
	}
	return d
}

// lenPair is a party pair whose every sent message is recorded by
// length (lenConn), one pair per database so both see the same run
// history.
type lenPair struct {
	p    [2]*mpc.Party
	lens [2]*lenConn
}

func newLenPair() *lenPair {
	ca, cb := transport.Pair()
	lp := &lenPair{lens: [2]*lenConn{{Conn: ca}, {Conn: cb}}}
	lp.p[mpc.Alice] = mpc.NewParty(mpc.Alice, lp.lens[mpc.Alice], testRing)
	lp.p[mpc.Bob] = mpc.NewParty(mpc.Bob, lp.lens[mpc.Bob], testRing)
	return lp
}

func (lp *lenPair) close() {
	lp.lens[mpc.Alice].Close()
	lp.lens[mpc.Bob].Close()
}

// run executes f on both parties and returns Alice's relation and trace
// and each party's view: the lengths of the messages it sent during the
// run, through the local-join step when the plan has one. Later
// join-phase messages scale with OUT, which the reveal makes public.
func (lp *lenPair) run(t *testing.T, name string, q *Query,
	f func(p *mpc.Party, q *Query) (*relation.Relation, *Trace, error)) (*relation.Relation, *Trace, [2][]int) {
	t.Helper()
	var start, cut [2]int
	for r := range lp.p {
		lc := lp.lens[r]
		start[r], cut[r] = len(lc.lens), -1
		lp.p[r].Observer = func(s TraceStep) {
			if s.Op == "local-join" {
				cut[r] = len(lc.lens)
			}
		}
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := f(lp.p[mpc.Bob], q.For(mpc.Bob))
		if err != nil {
			lp.lens[mpc.Bob].Close()
		}
		done <- err
	}()
	rel, tr, err := f(lp.p[mpc.Alice], q.For(mpc.Alice))
	if err != nil {
		lp.lens[mpc.Alice].Close()
	}
	if berr := <-done; err != nil || berr != nil {
		t.Fatalf("%s: alice: %v, bob: %v\nquery: %+v", name, err, berr, q)
	}
	var view [2][]int
	for r := range view {
		if cut[r] < 0 {
			cut[r] = len(lp.lens[r].lens)
		}
		view[r] = lp.lens[r].lens[start[r]:cut[r]]
	}
	return rel, tr, view
}

// requireSamePlan fails unless the two plans agree on everything the
// planner decides: root, digest, and every step's estimates.
func requireSamePlan(t *testing.T, name string, a, b *Plan) {
	t.Helper()
	if a.Root != b.Root || a.Digest() != b.Digest() || len(a.Steps) != len(b.Steps) {
		t.Fatalf("%s: plan depends on data: root %s/%s, digest %s/%s, %d/%d steps",
			name, a.Root, b.Root, a.DigestString(), b.DigestString(), len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		sa, sb := &a.Steps[i], &b.Steps[i]
		if sa.EstBytes != sb.EstBytes || sa.EstOfflineBytes != sb.EstOfflineBytes || sa.EstOnlineBytes != sb.EstOnlineBytes {
			t.Fatalf("%s: step %s %s priced differently across databases: %d/%d/%d vs %d/%d/%d", name, sa.Op, sa.Node,
				sa.EstBytes, sa.EstOfflineBytes, sa.EstOnlineBytes, sb.EstBytes, sb.EstOfflineBytes, sb.EstOnlineBytes)
		}
	}
}

// requireExactEstimates fails unless every reduce and semijoin step of
// a run measured its estimate: EstBytes on a cold run; after Precompute
// (off non-nil), EstOnlineBytes online, and EstOfflineBytes in its
// offline record, which carries that estimate as its EstBytes.
func requireExactEstimates(t *testing.T, name string, plan *Plan, off, on *Trace) {
	t.Helper()
	if len(on.Steps) != len(plan.Steps) {
		t.Fatalf("%s: plan has %d steps, trace %d", name, len(plan.Steps), len(on.Steps))
	}
	var recs []TraceStep
	if off != nil {
		recs = off.Steps
	}
	for i := range plan.Steps {
		ps, s := &plan.Steps[i], on.Steps[i]
		// Offline records follow plan order, one per step with offline
		// traffic, then the staging and rendezvous records.
		var offBytes, offEst int64
		if len(recs) > 0 && recs[0].Op == ps.Op && recs[0].Node == ps.Node {
			offBytes, offEst, recs = recs[0].Bytes, recs[0].EstBytes, recs[1:]
		}
		if ps.Phase != "reduce" && ps.Phase != "semijoin" {
			continue
		}
		want := ps.EstBytes
		if off != nil {
			want = ps.EstOnlineBytes
			if offBytes != ps.EstOfflineBytes || offEst != ps.EstOfflineBytes {
				t.Errorf("%s: step %s %s: offline measured %d bytes, record estimates %d, EstOfflineBytes %d",
					name, ps.Op, ps.Node, offBytes, offEst, ps.EstOfflineBytes)
			}
		}
		if s.Bytes != want {
			t.Errorf("%s: step %s %s: estimated %d bytes, measured %d",
				name, ps.Op, ps.Node, want, s.Bytes)
		}
	}
}

// TestPropertySecureMatchesPlaintext draws, per seed, a query and two
// databases of its public shape — equal cardinalities and owners, fresh
// keys, match patterns, dummies and annotations — and runs both cold and
// precomputed, each database on its own party pair. It requires
//   - the plaintext engine's result on every run, and byte-exact
//     reduce- and semijoin-phase estimates: EstBytes on the cold runs,
//     EstOfflineBytes offline and EstOnlineBytes online on the
//     precomputed ones;
//   - planning reads public data only (ROADMAP 7(b)): both databases,
//     seen from either party, compile to the same root, digest and
//     per-step estimates;
//   - obliviousness (ROADMAP 7(a)): on every run, offline and online,
//     both parties send the same sequence of message lengths on both
//     databases, through the local-join step.
func TestPropertySecureMatchesPlaintext(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	ctx := context.Background()
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		q := randomQuery(rng)
		dbs := [2]*Query{q, randomData(rng, q)}
		var want [2]*relation.Relation
		var pairs [2]*lenPair
		for d := range dbs {
			want[d] = plaintextReference(t, dbs[d])
			pairs[d] = newLenPair()
		}
		var plans [2]*Plan
		for _, role := range []mpc.Role{mpc.Alice, mpc.Bob} {
			for d := range dbs {
				pl, err := ExplainOpts(dbs[d].For(role), testRing.Bits, Options{})
				if err != nil {
					t.Fatalf("seed %d: explain: %v", seed, err)
				}
				plans[d] = pl
			}
			requireSamePlan(t, fmt.Sprintf("seed %d %v", seed, role), plans[0], plans[1])
		}
		for _, pre := range []bool{false, true} {
			var views [2][][2][]int // per database: (offline,) online
			for d := range dbs {
				name := fmt.Sprintf("seed %d db %d precomputed=%v", seed, d, pre)
				var offTr *Trace
				if pre {
					var off [2][]int
					_, offTr, off = pairs[d].run(t, name+" (offline)", dbs[d], func(p *mpc.Party, q *Query) (*relation.Relation, *Trace, error) {
						tr, err := PrecomputeOpts(ctx, p, q, Options{})
						return nil, tr, err
					})
					views[d] = append(views[d], off)
				}
				got, tr, view := pairs[d].run(t, name, dbs[d], func(p *mpc.Party, q *Query) (*relation.Relation, *Trace, error) {
					return Run(ctx, p, q, Options{})
				})
				views[d] = append(views[d], view)
				compareResults(t, name, got, want[d])
				requireExactEstimates(t, name, plans[d], offTr, tr)
			}
			if !reflect.DeepEqual(views[0], views[1]) {
				t.Errorf("seed %d precomputed=%v: message lengths depend on data ([alice bob] per run):\n%v\nvs\n%v\nquery: %+v",
					seed, pre, views[0], views[1], q)
			}
		}
		for _, lp := range pairs {
			lp.close()
		}
	}
}
