package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/share"
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
// factors, with values that overflow the ring.
func TestProductTree(t *testing.T) {
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
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
		pa, pb, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) ([]uint64, error) { return productTree(p, fa, 0) },
			func(p *mpc.Party) ([]uint64, error) { return productTree(p, fb, 0) })
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := testRing.CombineSlice(pa, pb); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: product %v, want %v", k, got, want)
		}
	}
}
