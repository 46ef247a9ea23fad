package dp

import (
	"context"
	"math"
	"testing"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/prf"
	"secyan/internal/relation"
	"secyan/internal/share"
)

func TestMaxMultiplicity(t *testing.T) {
	r := relation.New(relation.MustSchema("k", "x"))
	r.Append([]uint64{1, 10}, 1)
	r.Append([]uint64{1, 11}, 1)
	r.Append([]uint64{1, 12}, 1)
	r.Append([]uint64{2, 13}, 1)
	r.Append([]uint64{3, 14}, 0) // zero-annotated: ignored
	m, err := MaxMultiplicity(r, []relation.Attr{"k"})
	if err != nil || m != 3 {
		t.Fatalf("max multiplicity: %d, %v", m, err)
	}
	if _, err := MaxMultiplicity(r, []relation.Attr{"zzz"}); err == nil {
		t.Fatal("unknown attr accepted")
	}
}

func TestSensitivityProduct(t *testing.T) {
	alice, bob := mpc.Pair(share.Ring{Bits: 32})
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	da, db, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (uint64, error) { return SensitivityProduct(p, 6) },
		func(p *mpc.Party) (uint64, error) { return SensitivityProduct(p, 7) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if da != 42 || db != 42 {
		t.Fatalf("Δ: alice %d, bob %d, want 42", da, db)
	}
}

func TestSampleLaplaceStatistics(t *testing.T) {
	g := prf.NewPRG(prf.Seed{5})
	const n = 20000
	const scale = 10.0
	var sum, absSum float64
	for i := 0; i < n; i++ {
		x := float64(SampleLaplace(g, scale, 32))
		sum += x
		absSum += math.Abs(x)
	}
	mean := sum / n
	meanAbs := absSum / n
	if math.Abs(mean) > 1 {
		t.Fatalf("laplace mean %f too far from 0", mean)
	}
	// E|X| = scale for Laplace.
	if meanAbs < 8 || meanAbs > 12 {
		t.Fatalf("laplace E|X| = %f, want ≈ %f", meanAbs, scale)
	}
	// Clamping.
	if x := SampleLaplace(g, 1e30, 32); x > 1<<30 || x < -(1<<30) {
		t.Fatalf("clamp failed: %d", x)
	}
}

// TestNoisyRevealJoinCount runs a small join-count query end to end with
// DP noise, checking the revealed value lies near the true count.
func TestNoisyRevealJoinCount(t *testing.T) {
	r1 := relation.New(relation.MustSchema("k"))
	r2 := relation.New(relation.MustSchema("k"))
	for i := 0; i < 30; i++ {
		r1.Append([]uint64{uint64(i % 10)}, 1)
		r2.Append([]uint64{uint64(i % 10)}, 1)
	}
	// True join count: every k in 0..9 has 3 × 3 pairs = 90.
	const trueCount = 90
	const epsilon = 2.0

	alice, bob := mpc.Pair(share.Ring{Bits: 32})
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	run := func(p *mpc.Party) (uint64, error) {
		var mine *relation.Relation
		if p.Role == mpc.Alice {
			mine = r1
		} else {
			mine = r2
		}
		q := &core.Query{
			Inputs: []core.Input{
				{Name: "r1", Owner: mpc.Alice, Schema: r1.Schema, N: r1.Len()},
				{Name: "r2", Owner: mpc.Bob, Schema: r2.Schema, N: r2.Len()},
			},
		}
		if p.Role == mpc.Alice {
			q.Inputs[0].Rel = mine
		} else {
			q.Inputs[1].Rel = mine
		}
		res, _, err := core.RunShared(context.Background(), p, q, core.Options{})
		if err != nil {
			return 0, err
		}
		myMax, err := MaxMultiplicity(mine, []relation.Attr{"k"})
		if err != nil {
			return 0, err
		}
		delta, err := SensitivityProduct(p, myMax)
		if err != nil {
			return 0, err
		}
		if delta != 9 {
			t.Errorf("Δ = %d, want 9 (3 × 3)", delta)
		}
		return NoisyReveal(p, res, delta, epsilon)
	}
	got, _, err := mpc.Run2PC(alice, bob, run, run)
	if err != nil {
		t.Fatal(err)
	}
	// With scale Δ/ε = 4.5, being 200 away is ~e^-44 unlikely; treat the
	// value as int32 to handle negative noise wrapping the ring.
	diff := int64(int32(uint32(got))) - trueCount
	if diff < -200 || diff > 200 {
		t.Fatalf("noisy count %d too far from %d", got, trueCount)
	}
	if diff == 0 {
		t.Log("noise happened to be zero (possible, but rare)")
	}
}

func TestNoisyRevealValidation(t *testing.T) {
	alice, _ := mpc.Pair(share.Ring{Bits: 32})
	defer alice.Conn.Close()
	res := &core.SharedResult{Single: &core.SharedRelation{
		Schema: relation.MustSchema("g"), N: 1, Annot: []uint64{0},
	}}
	if _, err := NoisyReveal(alice, res, 1, 1.0); err == nil {
		t.Fatal("grouped result accepted")
	}
	scalar := &core.SharedResult{Single: &core.SharedRelation{N: 1, Annot: []uint64{0}}}
	if _, err := NoisyReveal(alice, scalar, 1, 0); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
}
