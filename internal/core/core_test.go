package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/relation"
	"secyan/internal/share"
	"secyan/internal/transport"
)

type A = relation.Attr

var testRing = share.Ring{Bits: 32}

// runQuery and runShared are Run and RunShared under a background
// context and default options, without the trace.
func runQuery(p *mpc.Party, q *Query) (*relation.Relation, error) {
	rel, _, err := Run(context.Background(), p, q, Options{})
	return rel, err
}

func runShared(p *mpc.Party, q *Query) (*SharedResult, error) {
	res, _, err := RunShared(context.Background(), p, q, Options{})
	return res, err
}

// runBoth executes the same protocol function on two connected parties,
// one of which owns rel; the other passes rel == nil.
func shareBoth(t *testing.T, alice, bob *mpc.Party, owner mpc.Role, rel *relation.Relation) (*SharedRelation, *SharedRelation) {
	t.Helper()
	schema := rel.Schema
	n := rel.Len()
	relFor := func(p *mpc.Party) *relation.Relation {
		if p.Role == owner {
			return rel
		}
		return nil
	}
	sa, sb, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*SharedRelation, error) { return ShareInput(p, owner, relFor(p), schema, n) },
		func(p *mpc.Party) (*SharedRelation, error) { return ShareInput(p, owner, relFor(p), schema, n) },
	)
	if err != nil {
		t.Fatalf("ShareInput: %v", err)
	}
	return sa, sb
}

// reconstruct combines the two parties' shares of a shared relation and
// returns value-by-tuple on the holder's relation.
func reconstruct(sa, sb *SharedRelation) []uint64 {
	return testRing.CombineSlice(sa.Annot, sb.Annot)
}

func holderRelOf(sa, sb *SharedRelation) *relation.Relation {
	if sa.Rel != nil {
		return sa.Rel
	}
	return sb.Rel
}

func TestObliviousAggregate(t *testing.T) {
	for _, owner := range []mpc.Role{mpc.Alice, mpc.Bob} {
		alice, bob := mpc.Pair(testRing)
		rel := relation.New(relation.MustSchema("g", "x"))
		rel.Append([]uint64{2, 7}, 5)
		rel.Append([]uint64{1, 8}, 3)
		rel.Append([]uint64{2, 9}, 11)
		rel.Append([]uint64{3, 1}, 0)
		rel.Append([]uint64{1, 2}, 4)
		sa, sb := shareBoth(t, alice, bob, owner, rel)

		var dgA, dgB relation.DummyGen
		oa, ob, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) (*SharedRelation, error) { return Aggregate(p, &dgA, sa, []A{"g"}) },
			func(p *mpc.Party) (*SharedRelation, error) { return Aggregate(p, &dgB, sb, []A{"g"}) },
		)
		alice.Conn.Close()
		bob.Conn.Close()
		if err != nil {
			t.Fatalf("owner=%v: %v", owner, err)
		}
		vals := reconstruct(oa, ob)
		hr := holderRelOf(oa, ob)
		if hr.Len() != 5 {
			t.Fatalf("output size %d, want 5 (input size)", hr.Len())
		}
		got := map[uint64]uint64{}
		for i := range hr.Tuples {
			if hr.IsDummy(i) {
				if vals[i] != 0 {
					t.Fatalf("owner=%v: dummy row %d has nonzero aggregate %d", owner, i, vals[i])
				}
				continue
			}
			got[hr.Tuples[i][0]] = vals[i]
		}
		want := map[uint64]uint64{1: 7, 2: 16, 3: 0}
		for g, v := range want {
			if got[g] != v {
				t.Fatalf("owner=%v: group %d: got %d, want %d (all: %v)", owner, g, got[g], v, got)
			}
		}
	}
}

func TestObliviousProjectOne(t *testing.T) {
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	rel := relation.New(relation.MustSchema("g"))
	rel.Append([]uint64{1}, 5) // nonzero → ind 1
	rel.Append([]uint64{1}, 0)
	rel.Append([]uint64{2}, 0) // all-zero group → ind 0
	rel.Append([]uint64{3}, 0)
	rel.Append([]uint64{3}, 9)
	sa, sb := shareBoth(t, alice, bob, mpc.Bob, rel)
	var dgA, dgB relation.DummyGen
	oa, ob, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*SharedRelation, error) { return ProjectOne(p, &dgA, sa, []A{"g"}) },
		func(p *mpc.Party) (*SharedRelation, error) { return ProjectOne(p, &dgB, sb, []A{"g"}) },
	)
	if err != nil {
		t.Fatal(err)
	}
	vals := reconstruct(oa, ob)
	hr := holderRelOf(oa, ob)
	got := map[uint64]uint64{}
	for i := range hr.Tuples {
		if !hr.IsDummy(i) {
			got[hr.Tuples[i][0]] = vals[i]
		} else if vals[i] != 0 {
			t.Fatalf("dummy row with indicator %d", vals[i])
		}
	}
	want := map[uint64]uint64{1: 1, 2: 0, 3: 1}
	for g, v := range want {
		if got[g] != v {
			t.Fatalf("group %d: ind %d, want %d", g, got[g], v)
		}
	}
}

func TestSemijoinIntoCrossAndSameParty(t *testing.T) {
	cases := []struct {
		parentOwner, childOwner mpc.Role
	}{
		{mpc.Alice, mpc.Bob},
		{mpc.Bob, mpc.Alice},
		{mpc.Alice, mpc.Alice},
		{mpc.Bob, mpc.Bob},
	}
	for _, tc := range cases {
		alice, bob := mpc.Pair(testRing)
		parent := relation.New(relation.MustSchema("a", "b"))
		parent.Append([]uint64{1, 10}, 3)
		parent.Append([]uint64{2, 11}, 5)
		parent.Append([]uint64{3, 10}, 7)
		parent.Append([]uint64{4, 12}, 9)
		child := relation.New(relation.MustSchema("b"))
		child.Append([]uint64{10}, 100)
		child.Append([]uint64{11}, 0) // shared zero annotation
		// b=12 absent

		pa, pb := shareBoth(t, alice, bob, tc.parentOwner, parent)
		ca, cb := shareBoth(t, alice, bob, tc.childOwner, child)
		var dgA, dgB relation.DummyGen
		oa, ob, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) (*SharedRelation, error) { return SemijoinInto(p, &dgA, pa, ca) },
			func(p *mpc.Party) (*SharedRelation, error) { return SemijoinInto(p, &dgB, pb, cb) },
		)
		alice.Conn.Close()
		bob.Conn.Close()
		if err != nil {
			t.Fatalf("case %+v: %v", tc, err)
		}
		vals := reconstruct(oa, ob)
		want := []uint64{300, 0, 700, 0} // v ⊗ z, z = 100 for b=10, 0 for 11 (zero) and 12 (absent)
		for i, w := range want {
			if vals[i] != w {
				t.Fatalf("case %+v: tuple %d: got %d, want %d (all %v)", tc, i, vals[i], w, vals)
			}
		}
		if holderRelOf(oa, ob).Len() != 4 {
			t.Fatalf("case %+v: parent size changed", tc)
		}
	}
}

// TestCrossPartySemijoinRounds pins the round count of a cross-party
// semijoin on both PSIs — direct (a plaintext child) and indexed (a
// secret-shared child) — with its result: the ρ-OT that takes the payload
// out of the bin circuit rides in flights the bin already sends, so it
// adds no round.
func TestCrossPartySemijoinRounds(t *testing.T) {
	const m, n = 30, 116
	parent := relation.New(relation.MustSchema("a", "b"))
	for i := 0; i < m; i++ {
		parent.Append([]uint64{uint64(i), uint64(2 * i)}, uint64(i+1))
	}
	child := relation.New(relation.MustSchema("b"))
	want := make([]uint64, m)
	for j := 0; j < n; j++ {
		child.Append([]uint64{uint64(3 * j)}, uint64(j+7))
		if k := 3 * j; k%2 == 0 && k/2 < m {
			want[k/2] = uint64(k/2+1) * uint64(j+7)
		}
	}
	for _, tc := range []struct {
		name   string
		plain  bool
		rounds int64
	}{{"direct", true, 4}, {"indexed", false, 6}} {
		alice, bob := mpc.Pair(testRing)
		pa, pb := shareBoth(t, alice, bob, mpc.Alice, parent)
		ca, cb := shareBoth(t, alice, bob, mpc.Bob, child)
		if tc.plain {
			ca = &SharedRelation{Holder: mpc.Bob, Schema: child.Schema, N: n, Annot: make([]uint64, n), Plain: true}
			cb = &SharedRelation{Holder: mpc.Bob, Schema: child.Schema, N: n, Rel: child, Annot: child.Annot, Plain: true}
		}
		if _, _, err := mpc.Run2PC(alice, bob, warmOTs, warmOTs); err != nil {
			t.Fatal(err)
		}
		a0, b0 := statsAfterTurn(t, alice, bob)
		var dgA, dgB relation.DummyGen
		oa, ob, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) (*SharedRelation, error) { return SemijoinInto(p, &dgA, pa, ca) },
			func(p *mpc.Party) (*SharedRelation, error) { return SemijoinInto(p, &dgB, pb, cb) },
		)
		alice.Conn.Close()
		bob.Conn.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := reconstruct(oa, ob); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: annotations %v, want %v", tc.name, got, want)
		}
		if got := max(alice.Conn.Stats().Rounds-a0.Rounds, bob.Conn.Stats().Rounds-b0.Rounds); got != tc.rounds {
			t.Fatalf("%s: %d rounds, want %d", tc.name, got, tc.rounds)
		}
	}
}

// TestCrossPartyPlainSemijoinIsDirect runs a cross-party semijoin of a
// plain child at ℓ = 64 on tiny sizes, where a PSI carrying an index
// instead of the annotation would be a few percent cheaper: the plain
// child still takes the direct PSI, whose result matches plaintext, whose
// traffic equals its declared exchanges to the byte, and whose rounds are the
// direct path's 4; no indexed PSI kernel runs.
func TestCrossPartyPlainSemijoinIsDirect(t *testing.T) {
	ring := share.Ring{Bits: 64}
	obs.Enable()
	defer obs.Disable()
	for _, sz := range []struct{ m, n int }{{5, 1}, {9, 4}, {23, 2}} {
		parent := relation.New(relation.MustSchema("a", "b"))
		for i := 0; i < sz.m; i++ {
			parent.Append([]uint64{uint64(i), uint64(i % 3)}, uint64(i+1)<<40)
		}
		child := relation.New(relation.MustSchema("b"))
		for j := 0; j < sz.n; j++ {
			child.Append([]uint64{uint64(2 * j)}, ^uint64(j))
		}
		want := make([]uint64, sz.m)
		for i, tup := range parent.Tuples {
			if b := tup[1]; b%2 == 0 && int(b/2) < sz.n {
				want[i] = ring.Mask(parent.Annot[i] * child.Annot[b/2])
			}
		}
		est := directCost(semijoinExchanges(nodeState{schema: parent.Schema, n: sz.m, holder: mpc.Alice},
			nodeState{schema: child.Schema, n: sz.n, plain: true, holder: mpc.Bob}, ring.Bits))

		alice, bob := mpc.Pair(ring)
		pa, pb := shareBoth(t, alice, bob, mpc.Alice, parent)
		ca := &SharedRelation{Holder: mpc.Bob, Schema: child.Schema, N: sz.n, Annot: make([]uint64, sz.n), Plain: true}
		cb := &SharedRelation{Holder: mpc.Bob, Schema: child.Schema, N: sz.n, Rel: child, Annot: child.Annot, Plain: true}
		if _, _, err := mpc.Run2PC(alice, bob, warmOTs, warmOTs); err != nil {
			t.Fatal(err)
		}
		a0, b0 := statsAfterTurn(t, alice, bob)
		direct0, _ := obs.KernelTotal("psi.recv")
		indexed0, _ := obs.KernelTotal("psi.indexed.")
		var dgA, dgB relation.DummyGen
		oa, ob, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) (*SharedRelation, error) { return SemijoinInto(p, &dgA, pa, ca) },
			func(p *mpc.Party) (*SharedRelation, error) { return SemijoinInto(p, &dgB, pb, cb) },
		)
		alice.Conn.Close()
		bob.Conn.Close()
		if err != nil {
			t.Fatalf("m=%d n=%d: %v", sz.m, sz.n, err)
		}
		if got := ring.CombineSlice(oa.Annot, ob.Annot); !reflect.DeepEqual(got, want) {
			t.Fatalf("m=%d n=%d: annotations %v, want %v", sz.m, sz.n, got, want)
		}
		if got := alice.Conn.Stats().TotalBytes() - a0.TotalBytes(); got != est {
			t.Fatalf("m=%d n=%d: moved %d bytes, the plan estimates %d", sz.m, sz.n, got, est)
		}
		if got := max(alice.Conn.Stats().Rounds-a0.Rounds, bob.Conn.Stats().Rounds-b0.Rounds); got != 4 {
			t.Fatalf("m=%d n=%d: %d rounds, want the direct path's 4", sz.m, sz.n, got)
		}
		if direct, _ := obs.KernelTotal("psi.recv"); direct == direct0 {
			t.Fatalf("m=%d n=%d: the direct PSI did not run", sz.m, sz.n)
		}
		if indexed, _ := obs.KernelTotal("psi.indexed."); indexed != indexed0 {
			t.Fatalf("m=%d n=%d: an indexed PSI kernel ran", sz.m, sz.n)
		}
	}
}

// statsAfterTurn exchanges one byte each way, so that each end's next
// send opens a round as it would on a fresh connection, and returns both
// ends' stats: a later exchange's bytes and rounds are deltas from them.
func statsAfterTurn(t *testing.T, alice, bob *mpc.Party) (a0, b0 transport.Stats) {
	t.Helper()
	for _, c := range []transport.Conn{alice.Conn, bob.Conn} {
		if err := c.Send([]byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []transport.Conn{alice.Conn, bob.Conn} {
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	return alice.Conn.Stats(), bob.Conn.Stats()
}

// warmOTs creates both of a party's OT-extension sessions and the KKRT
// extension of the PSIs Bob sends in, so that a later exchange's stats
// exclude setup.
func warmOTs(p *mpc.Party) (any, error) {
	send := func() error { _, err := p.OTSender(); return err }
	recv := func() error { _, err := p.OTReceiver(); return err }
	kkrt := func() error { _, err := p.KKRTReceiver(); return err }
	if p.Role == mpc.Bob {
		send, recv = recv, send
		kkrt = func() error { _, err := p.KKRTSender(); return err }
	}
	if err := send(); err != nil {
		return nil, err
	}
	if err := recv(); err != nil {
		return nil, err
	}
	return nil, kkrt()
}

func TestSemijoinGeneral(t *testing.T) {
	// target ⋉ by where `by` has extra attributes and duplicate join keys.
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	target := relation.New(relation.MustSchema("a", "k"))
	target.Append([]uint64{1, 10}, 4)
	target.Append([]uint64{2, 11}, 6)
	target.Append([]uint64{3, 12}, 8)
	by := relation.New(relation.MustSchema("k", "c"))
	by.Append([]uint64{10, 1}, 2) // supports k=10
	by.Append([]uint64{10, 2}, 3) // duplicate key: π¹ handles it
	by.Append([]uint64{11, 3}, 0) // zero: does not support k=11

	ta, tb := shareBoth(t, alice, bob, mpc.Alice, target)
	ba, bb := shareBoth(t, alice, bob, mpc.Bob, by)
	var dgA, dgB relation.DummyGen
	oa, ob, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*SharedRelation, error) { return Semijoin(p, &dgA, ta, ba) },
		func(p *mpc.Party) (*SharedRelation, error) { return Semijoin(p, &dgB, tb, bb) },
	)
	if err != nil {
		t.Fatal(err)
	}
	vals := reconstruct(oa, ob)
	want := []uint64{4, 0, 0}
	for i, w := range want {
		if vals[i] != w {
			t.Fatalf("tuple %d: got %d, want %d", i, vals[i], w)
		}
	}
}

func TestRevealRelation(t *testing.T) {
	for _, owner := range []mpc.Role{mpc.Alice, mpc.Bob} {
		alice, bob := mpc.Pair(testRing)
		rel := relation.New(relation.MustSchema("g", "h"))
		rel.Append([]uint64{1, 2}, 42)
		rel.Append([]uint64{3, 4}, 0) // dangling: must come back as nothing
		rel.Append([]uint64{5, 6}, 7)
		sa, sb := shareBoth(t, alice, bob, owner, rel)
		ra, _, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) (*relation.Relation, error) { return RevealRelation(p, sa) },
			func(p *mpc.Party) (*relation.Relation, error) { return RevealRelation(p, sb) },
		)
		alice.Conn.Close()
		bob.Conn.Close()
		if err != nil {
			t.Fatalf("owner=%v: %v", owner, err)
		}
		if ra.Len() != 2 {
			t.Fatalf("owner=%v: revealed %d rows, want 2: %v", owner, ra.Len(), ra)
		}
		got := map[uint64]uint64{}
		for i := range ra.Tuples {
			got[ra.Tuples[i][0]] = ra.Annot[i]
		}
		if got[1] != 42 || got[5] != 7 {
			t.Fatalf("owner=%v: wrong reveal %v", owner, got)
		}
	}
}

// TestProductTree multiplies k = 1 … 5 shared factors elementwise and
// checks the reconstruction against the product of the reconstructed
// factors, with values that overflow the ring, and the traffic against
// productBatches, the annotation-product step's exchanges.
func TestProductTree(t *testing.T) {
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	if _, _, err := mpc.Run2PC(alice, bob, warmOTs, warmOTs); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	const n = 6
	for k := 1; k <= 5; k++ {
		fa, fb := make([][]uint64, k), make([][]uint64, k)
		want := make([]uint64, n)
		for i := range want {
			want[i] = 1
		}
		for f := 0; f < k; f++ {
			fa[f], fb[f] = make([]uint64, n), make([]uint64, n)
			for i := 0; i < n; i++ {
				v := rng.Uint64()
				fa[f][i], fb[f][i] = testRing.Split(alice.PRG, v)
				want[i] = testRing.Mask(want[i] * v)
			}
		}
		before := alice.Conn.Stats().TotalBytes()
		pa, pb, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) ([]uint64, error) { return productTree(p, fa) },
			func(p *mpc.Party) ([]uint64, error) { return productTree(p, fb) })
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got, want := alice.Conn.Stats().TotalBytes()-before, directCost(productBatches(n, k, testRing.Bits)); got != want {
			t.Fatalf("k=%d: moved %d bytes, productBatches predict %d", k, got, want)
		}
		if got := testRing.CombineSlice(pa, pb); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: product %v, want %v", k, got, want)
		}
	}
}

// TestMulSharesOneRoundTrip pins Gilboa's batch, direct and pooled: the
// products reconstruct, the traffic is the direct resp. online bytes of
// the mulBatch exchange the plan declares for it, and it is one round
// trip.
func TestMulSharesOneRoundTrip(t *testing.T) {
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	rng := rand.New(rand.NewSource(19))
	const n = 7
	ell := testRing.Bits
	m, msgLen := mulOTs(n, ell), mulMsgLen(ell)
	for _, pooled := range []bool{false, true, false} {
		a, b := make([]uint64, n), make([]uint64, n)
		for i := range a {
			a[i], b[i] = rng.Uint64(), rng.Uint64()
		}
		aA, aB := testRing.SplitSlice(alice.PRG, a)
		bA, bB := testRing.SplitSlice(alice.PRG, b)
		want, _, online := mulBatch(mpc.Bob, n, ell).cost()
		if pooled {
			if _, _, err := mpc.Run2PC(alice, bob,
				func(p *mpc.Party) (any, error) { r, _ := p.OTReceiver(); return nil, r.FillRandom(m, msgLen) },
				func(p *mpc.Party) (any, error) { s, _ := p.OTSender(); return nil, s.FillRandom(m, msgLen) },
			); err != nil {
				t.Fatal(err)
			}
			want = online
		}
		before := alice.Conn.Stats()
		pa, pb, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) ([]uint64, error) { return mulShares(p, aA, bA, mpc.Alice) },
			func(p *mpc.Party) ([]uint64, error) { return mulShares(p, aB, bB, mpc.Alice) })
		if err != nil {
			t.Fatal(err)
		}
		after := alice.Conn.Stats()
		for i := range a {
			if got := testRing.Add(pa[i], pb[i]); got != testRing.Mul(a[i], b[i]) {
				t.Fatalf("pooled=%v: product %d = %d, want %d", pooled, i, got, testRing.Mul(a[i], b[i]))
			}
		}
		if before.MessagesSent+before.MessagesRecv == 0 {
			continue // the first run also set up the OT sessions
		}
		if got := after.TotalBytes() - before.TotalBytes(); got != want {
			t.Fatalf("pooled=%v: moved %d bytes, closed form %d", pooled, got, want)
		}
		if got := after.MessagesSent + after.MessagesRecv - before.MessagesSent - before.MessagesRecv; got != 2 {
			t.Fatalf("pooled=%v: %d messages, want one round trip", pooled, got)
		}
	}
}

// directCost is the bytes of exs when every exchange runs direct.
func directCost(exs []exchange) int64 {
	var sum int64
	for _, x := range exs {
		d, _, _ := x.cost()
		sum += d
	}
	return sum
}
