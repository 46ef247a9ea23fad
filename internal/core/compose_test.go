package core

import (
	"math/rand"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/relation"
)

// runSharedPair executes RunShared for two annotation variants of the same
// relations and applies combine to the two shared results.
func runComposed(t *testing.T, q *Query, relsA, relsB []*relation.Relation,
	combine func(p *mpc.Party, ra, rb *SharedResult) (*relation.Relation, error)) *relation.Relation {
	t.Helper()
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	queryFor := func(role mpc.Role, rels []*relation.Relation) *Query {
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
	run := func(p *mpc.Party) (*relation.Relation, error) {
		ra, err := runShared(p, queryFor(p.Role, relsA))
		if err != nil {
			return nil, err
		}
		rb, err := runShared(p, queryFor(p.Role, relsB))
		if err != nil {
			return nil, err
		}
		return combine(p, ra, rb)
	}
	res, _, err := mpc.Run2PC(alice, bob, run, run)
	if err != nil {
		t.Fatalf("composed run: %v", err)
	}
	return res
}

// composeQuery builds a two-relation group-by query where the two variants
// differ only in annotations — the structure of TPC-H Q8/Q9 composition.
func composeQuery(rng *rand.Rand) (q *Query, relsA, relsB []*relation.Relation, wantNum, wantDen map[uint64]uint64) {
	n := 14
	base := relation.New(relation.MustSchema("k", "g"))
	other := relation.New(relation.MustSchema("k"))
	for i := 0; i < n; i++ {
		base.Append([]uint64{uint64(rng.Intn(7)), uint64(rng.Intn(3))}, 0)
		other.Append([]uint64{uint64(rng.Intn(7))}, 1)
	}
	ra := base.Clone()
	rb := base.Clone()
	for i := 0; i < n; i++ {
		ra.Annot[i] = uint64(rng.Intn(50))
		rb.Annot[i] = uint64(50 + rng.Intn(50)) // denominator nonzero per tuple
	}
	q = &Query{
		Inputs: []Input{
			{Name: "base", Owner: mpc.Bob, Schema: base.Schema, N: n},
			{Name: "other", Owner: mpc.Alice, Schema: other.Schema, N: n},
		},
		Output: []relation.Attr{"g"},
	}
	// Plaintext expectations.
	wantNum = map[uint64]uint64{}
	wantDen = map[uint64]uint64{}
	inOther := map[uint64]uint64{}
	for i := range other.Tuples {
		inOther[other.Tuples[i][0]]++
	}
	for i := range base.Tuples {
		k, g := base.Tuples[i][0], base.Tuples[i][1]
		wantNum[g] += ra.Annot[i] * inOther[k]
		wantDen[g] += rb.Annot[i] * inOther[k]
	}
	return q, []*relation.Relation{ra, other}, []*relation.Relation{rb, other}, wantNum, wantDen
}

func TestComposeRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q, relsA, relsB, wantNum, wantDen := composeQuery(rng)
	const scale = 100
	got := runComposed(t, q, relsA, relsB, func(p *mpc.Party, ra, rb *SharedResult) (*relation.Relation, error) {
		return RevealRatio(p, ra, rb, scale)
	})
	rows := map[uint64]uint64{}
	for i := range got.Tuples {
		rows[got.Tuples[i][0]] = got.Annot[i]
	}
	for g, den := range wantDen {
		if den == 0 {
			continue
		}
		want := wantNum[g] * scale / den
		if rows[g] != want {
			t.Fatalf("group %d: ratio %d, want %d (num=%d den=%d)", g, rows[g], want, wantNum[g], den)
		}
	}
}

func TestComposeSubtract(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	q, relsA, relsB, wantNum, wantDen := composeQuery(rng)
	ring := testRing
	got := runComposed(t, q, relsA, relsB, func(p *mpc.Party, ra, rb *SharedResult) (*relation.Relation, error) {
		diff, err := ra.Subtract(ring, rb)
		if err != nil {
			return nil, err
		}
		return diff.Reveal(p, q.Output)
	})
	rows := map[uint64]uint64{}
	for i := range got.Tuples {
		rows[got.Tuples[i][0]] = got.Annot[i]
	}
	for g := range wantDen {
		want := ring.Sub(ring.Mask(wantNum[g]), ring.Mask(wantDen[g]))
		if want == 0 {
			continue // zero differences are suppressed like empty groups
		}
		if rows[g] != want {
			t.Fatalf("group %d: diff %d, want %d", g, rows[g], want)
		}
	}
}

func TestSubtractValidation(t *testing.T) {
	a := &SharedResult{Single: &SharedRelation{N: 3, Annot: make([]uint64, 3)}}
	b := &SharedResult{Single: &SharedRelation{N: 2, Annot: make([]uint64, 2)}}
	if _, err := a.Subtract(testRing, b); err == nil {
		t.Fatal("size mismatch accepted")
	}
	c := &SharedResult{Single: &SharedRelation{N: 3, Holder: mpc.Bob, Annot: make([]uint64, 3)}}
	if _, err := a.Subtract(testRing, c); err == nil {
		t.Fatal("holder mismatch accepted")
	}
}
