package core

import (
	"math/rand"
	"reflect"
	"testing"

	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/relation"
)

// runComposed executes RunShared for two descriptions of one query,
// differing only in annotations, and applies combine to the two shared
// results.
func runComposed(t *testing.T, qa, qb *Query,
	combine func(p *mpc.Party, ra, rb *SharedResult) (*relation.Relation, error)) *relation.Relation {
	t.Helper()
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	run := func(p *mpc.Party) (*relation.Relation, error) {
		ra, err := runShared(p, qa.For(p.Role))
		if err != nil {
			return nil, err
		}
		rb, err := runShared(p, qb.For(p.Role))
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

// composeQuery describes a two-relation group-by query twice, the two
// variants differing only in annotations — the structure of TPC-H Q8/Q9 composition.
// The grouped relation belongs to owner, and group 2's denominator is
// zero. Row 0 joins, in group 0, with a numerator of 2^ℓ/64: group 0's
// num·scale passes 2^ℓ for any scale ≥ 64.
func composeQuery(rng *rand.Rand, owner mpc.Role) (qa, qb *Query, wantNum, wantDen map[uint64]uint64) {
	n := 14
	base := relation.New(relation.MustSchema("k", "g"))
	other := relation.New(relation.MustSchema("k"))
	for i := 0; i < n; i++ {
		base.Append([]uint64{uint64(rng.Intn(7)), uint64(rng.Intn(3))}, 0)
		other.Append([]uint64{uint64(rng.Intn(7))}, 1)
	}
	base.Tuples[0] = []uint64{other.Tuples[0][0], 0}
	ra := base.Clone()
	rb := base.Clone()
	for i := 0; i < n; i++ {
		ra.Annot[i] = uint64(rng.Intn(1000))
		rb.Annot[i] = uint64(50 + rng.Intn(50))
		if base.Tuples[i][1] == 2 {
			rb.Annot[i] = 0
		}
	}
	ra.Annot[0] = 1 << testRing.Bits / 64
	query := func(base *relation.Relation) *Query {
		return &Query{
			Inputs: []Input{
				{Name: "base", Owner: owner, Schema: base.Schema, N: n, Rel: base},
				{Name: "other", Owner: 1 - owner, Schema: other.Schema, N: n, Rel: other},
			},
			Output: []relation.Attr{"g"},
		}
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
	return query(ra), query(rb), wantNum, wantDen
}

// TestComposeRatio reveals a ratio of two shared results with the rows
// at either party: every group with a nonzero denominator appears once
// with its quotient, ⌊num·scale/den⌋ also where num·scale passes 2^ℓ,
// and neither a zero-denominator group nor a dummy row appears. A scale
// of 0 is refused before anything is sent.
func TestComposeRatio(t *testing.T) {
	if _, err := RevealRatio(nil, nil, nil, 0); err == nil {
		t.Fatal("RevealRatio accepted scale 0")
	}
	for _, owner := range []mpc.Role{mpc.Alice, mpc.Bob} {
		t.Run(owner.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			qa, qb, wantNum, wantDen := composeQuery(rng, owner)
			const scale = 100
			got := runComposed(t, qa, qb, func(p *mpc.Party, ra, rb *SharedResult) (*relation.Relation, error) {
				if h := rb.asShared().Holder; h != owner {
					t.Errorf("result rows at %v, want %v", h, owner)
				}
				return RevealRatio(p, ra, rb, scale)
			})
			rows := map[uint64]uint64{}
			for i, row := range got.Tuples {
				g := row[0]
				if relation.IsDummyValue(g) {
					t.Fatalf("dummy row %v revealed", row)
				}
				if _, dup := rows[g]; dup {
					t.Fatalf("group %d revealed twice", g)
				}
				rows[g] = got.Annot[i]
			}
			if wantDen[2] != 0 || wantNum[0]*scale < 1<<testRing.Bits {
				t.Fatalf("group 2's denominator is %d, want 0; group 0's num·scale is %d, want ≥ 2^ℓ", wantDen[2], wantNum[0]*scale)
			}
			for g, den := range wantDen {
				ratio, ok := rows[g]
				if den == 0 {
					if ok {
						t.Fatalf("group %d has a zero denominator but was revealed as %d", g, ratio)
					}
					continue
				}
				if want := wantNum[g] * scale / den; !ok || ratio != want {
					t.Fatalf("group %d: ratio %d (revealed %v), want %d (num=%d den=%d)", g, ratio, ok, want, wantNum[g], den)
				}
			}
			for g := range rows {
				if wantDen[g] == 0 {
					t.Fatalf("group %d revealed without a denominator", g)
				}
			}
		})
	}
}

// TestRatioGadgetZeroDenominator evaluates the ratio circuit in the clear
// on shares laid out as revealCircuit lays them out: a zero denominator
// yields nz = 0, zero payload bits and q = 0 (the division alone would
// give all ones), a nonzero one nz = 1, the row and ⌊num·scale/den⌋, at
// scale 1 and at a scale where num·scale passes 2^ℓ.
func TestRatioGadgetZeroDenominator(t *testing.T) {
	const cols = 2
	ring, ell := testRing, testRing.Bits
	rng := rand.New(rand.NewSource(41))
	row := []uint64{7, 9}
	in := []struct{ num, den uint64 }{{1234, 5}, {77, 0}, {0, 0}, {1 << 30, 1000}}
	for _, tc := range []struct {
		withRows bool
		scale    uint64
	}{{false, 1}, {true, 1}, {true, 100}} {
		withRows, scale := tc.withRows, tc.scale
		circ := buildRevealCircuit(len(in), cols, ell, withRows, scale)
		var evalBits, priv []bool
		for _, tu := range in {
			na, da := ring.Mask(rng.Uint64()), ring.Mask(rng.Uint64())
			nb, db := ring.Sub(tu.num, na), ring.Sub(tu.den, da)
			evalBits = gc.AppendBits(gc.AppendBits(evalBits, da, ell), na, ell)
			priv = gc.AppendBits(priv, ring.Neg(db), ell)
			if withRows {
				for _, v := range row {
					priv = gc.AppendBits(priv, v, attrBits)
				}
			}
			priv = gc.AppendBits(gc.AppendBits(priv, db, ell), nb, ell)
		}
		out, _, err := circ.EvalPlain(nil, evalBits, priv)
		if err != nil {
			t.Fatal(err)
		}
		stride := len(out) / len(in)
		for i, tu := range in {
			o := out[i*stride : (i+1)*stride]
			nz, q := o[0], gc.UintOfBits(o[stride-ell:])
			payload := o[1 : stride-ell]
			wantQ := uint64(0)
			if tu.den != 0 {
				wantQ = tu.num * scale / tu.den
			}
			if nz != (tu.den != 0) || q != wantQ {
				t.Errorf("withRows=%v scale=%d num=%d den=%d: nz=%v q=%d, want nz=%v q=%d", withRows, scale, tu.num, tu.den, nz, q, tu.den != 0, wantQ)
			}
			for c := 0; withRows && c < cols; c++ {
				want := row[c]
				if !nz {
					want = 0
				}
				if got := gc.UintOfBits(payload[c*attrBits : (c+1)*attrBits]); got != want {
					t.Errorf("withRows num=%d den=%d: column %d reads %d, want %d", tu.num, tu.den, c, got, want)
				}
			}
		}
	}
}

// TestRatioCircuitIsSlotBuilt pins that the ratio circuit of n rows is
// one gadget repeated n times: its gate list does not depend on n.
func TestRatioCircuitIsSlotBuilt(t *testing.T) {
	one := buildRevealCircuit(1, 3, 32, true, 100)
	for _, n := range []int{2, 17, 1000} {
		c := buildRevealCircuit(n, 3, 32, true, 100)
		if c.Slots != n || !reflect.DeepEqual(c.Gates, one.Gates) || c.NumPrivate != one.NumPrivate {
			t.Fatalf("n=%d: %d slots of %d gates, want %d slots of the one-row circuit's %d", n, c.Slots, len(c.Gates), n, len(one.Gates))
		}
	}
}

func TestComposeSubtract(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	qa, qb, wantNum, wantDen := composeQuery(rng, mpc.Bob)
	ring := testRing
	got := runComposed(t, qa, qb, func(p *mpc.Party, ra, rb *SharedResult) (*relation.Relation, error) {
		diff, err := ra.Subtract(ring, rb)
		if err != nil {
			return nil, err
		}
		return diff.Reveal(p, qa.Output)
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
