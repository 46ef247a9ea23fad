package core

import (
	"math/rand"
	"reflect"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/relation"
)

// TestGroupSumsEveryBoundaryPattern checks π^⊕'s construction over every
// group-boundary pattern of up to 8 sorted tuples (n = 1 and a single
// group included). groupShift must fix every non-end and send each group
// end to the previous one, the first to slot n−1; and the oblivious
// aggregate must reconstruct to exactly localMerge's output — the same
// rows, the group's sum at its last position and zero elsewhere — for
// either holder.
func TestGroupSumsEveryBoundaryPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	for n := 1; n <= 8; n++ {
		for pattern := 0; pattern < 1<<(n-1); pattern++ {
			eq := make([]bool, n)
			for i := 1; i < n; i++ {
				eq[i] = pattern>>(i-1)&1 == 1
			}
			want := make([]int, n)
			prevEnd := n - 1
			for i := range want {
				want[i] = i
				if i == n-1 || !eq[i+1] {
					want[i], prevEnd = prevEnd, i
				}
			}
			if got := groupShift(eq); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d eq=%v: groupShift %v, want %v", n, eq, got, want)
			}

			// Rows already in group order, so the sort is the identity and
			// eq is their boundary pattern; "x" is folded away.
			rel := relation.New(relation.MustSchema("g", "x"))
			g := uint64(0)
			for i := 0; i < n; i++ {
				if i > 0 && !eq[i] {
					g++
				}
				annot := uint64(rng.Intn(3))
				if rng.Intn(2) == 0 {
					annot = uint64(rng.Int63()) & (1<<testRing.Bits - 1)
				}
				rel.Append([]uint64{g, rng.Uint64() % 1000}, annot)
			}
			owner := mpc.Role(pattern % 2)
			holder := alice
			if owner == mpc.Bob {
				holder = bob
			}
			// The plain path is local to the holder: no peer needed.
			in, err := NewPlainInput(holder, owner, rel, rel.Schema, n)
			if err != nil {
				t.Fatal(err)
			}
			var dg relation.DummyGen
			plain, err := Aggregate(holder, &dg, in, []A{"g"})
			if err != nil {
				t.Fatal(err)
			}
			sa, sb := shareBoth(t, alice, bob, owner, rel)
			var dgA, dgB relation.DummyGen
			oa, ob, err := mpc.Run2PC(alice, bob,
				func(p *mpc.Party) (*SharedRelation, error) { return Aggregate(p, &dgA, sa, []A{"g"}) },
				func(p *mpc.Party) (*SharedRelation, error) { return Aggregate(p, &dgB, sb, []A{"g"}) },
			)
			if err != nil {
				t.Fatalf("n=%d eq=%v: %v", n, eq, err)
			}
			if got := reconstruct(oa, ob); !reflect.DeepEqual(got, plain.Annot) {
				t.Fatalf("n=%d eq=%v owner=%v: oblivious aggregate %v, localMerge %v", n, eq, owner, got, plain.Annot)
			}
			if got := holderRelOf(oa, ob); !reflect.DeepEqual(got.Tuples, plain.Rel.Tuples) {
				t.Fatalf("n=%d eq=%v owner=%v: output rows %v, localMerge %v", n, eq, owner, got.Tuples, plain.Rel.Tuples)
			}
		}
	}
}
