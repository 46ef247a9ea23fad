package oep

import (
	"math/rand"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/share"
)

// runOEP shares vals, runs the protocol with the programmer role on the
// given party, and reconstructs the outputs.
func runOEP(t *testing.T, xi []int, vals []uint64, programmerIsAlice, bijection bool) []uint64 {
	t.Helper()
	ring := share.Ring{Bits: 64}
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()

	g := alice.PRG
	m := len(vals)
	sA := make([]uint64, m)
	sB := make([]uint64, m)
	for i, v := range vals {
		sA[i], sB[i] = ring.Split(g, v)
	}

	run := func(p *mpc.Party, mine []uint64) ([]uint64, error) {
		programmer := (p.Role == mpc.Alice) == programmerIsAlice
		if bijection {
			if programmer {
				return RunPermuteProgrammer(p, xi, mine)
			}
			return RunPermuteHelper(p, m, mine)
		}
		if programmer {
			return RunProgrammer(p, xi, m, mine)
		}
		return RunHelper(p, m, len(xi), mine)
	}

	outA, outB, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) ([]uint64, error) { return run(p, sA) },
		func(p *mpc.Party) ([]uint64, error) { return run(p, sB) },
	)
	if err != nil {
		t.Fatalf("OEP failed: %v", err)
	}
	if len(outA) != len(xi) || len(outB) != len(xi) {
		t.Fatalf("output lengths %d/%d, want %d", len(outA), len(outB), len(xi))
	}
	return ring.CombineSlice(outA, outB)
}

func TestOEPExtendedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := [][2]int{{1, 1}, {1, 4}, {5, 3}, {8, 8}, {16, 40}, {33, 7}}
	for _, sh := range shapes {
		m, n := sh[0], sh[1]
		vals := make([]uint64, m)
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		xi := make([]int, n)
		for i := range xi {
			xi[i] = rng.Intn(m)
		}
		for _, progAlice := range []bool{true, false} {
			got := runOEP(t, xi, vals, progAlice, false)
			for i := range xi {
				if got[i] != vals[xi[i]] {
					t.Fatalf("shape %v progAlice=%v: out[%d]=%d, want %d",
						sh, progAlice, i, got[i], vals[xi[i]])
				}
			}
		}
	}
}

func TestOEPPermutationMode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 8, 17, 64} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		xi := rng.Perm(n)
		for _, progAlice := range []bool{true, false} {
			got := runOEP(t, xi, vals, progAlice, true)
			for i := range xi {
				if got[i] != vals[xi[i]] {
					t.Fatalf("n=%d progAlice=%v: out[%d] wrong", n, progAlice, i)
				}
			}
		}
	}
}

func TestOEPOutputSharesAreFresh(t *testing.T) {
	// The identity permutation must still re-randomize the shares: the
	// programmer's output share must differ from its input share (they are
	// masked with fresh OT-derived randomness).
	ring := share.Ring{Bits: 64}
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	const n = 8
	vals := make([]uint64, n)
	sA := make([]uint64, n)
	sB := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
		sA[i], sB[i] = ring.Split(alice.PRG, vals[i])
	}
	xi := make([]int, n)
	for i := range xi {
		xi[i] = i
	}
	outA, outB, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) ([]uint64, error) { return RunPermuteProgrammer(p, xi, sA) },
		func(p *mpc.Party) ([]uint64, error) { return RunPermuteHelper(p, n, sB) },
	)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range outA {
		if outA[i] == sA[i] {
			same++
		}
		if ring.Add(outA[i], outB[i]) != vals[i] {
			t.Fatalf("identity perm broke value %d", i)
		}
	}
	if same == n {
		t.Fatal("output shares identical to input shares: no re-randomization")
	}
}

func TestOEPValidation(t *testing.T) {
	ring := share.Ring{Bits: 64}
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	if _, err := RunProgrammer(alice, []int{0}, 3, []uint64{1}); err == nil {
		t.Error("short share vector accepted")
	}
	if _, err := RunHelper(bob, 3, 1, []uint64{1}); err == nil {
		t.Error("short share vector accepted (helper)")
	}
	// Non-bijection xi in permutation mode must be rejected.
	if _, err := RunPermuteProgrammer(alice, []int{0, 0}, []uint64{1, 2}); err == nil {
		t.Error("non-bijection accepted in permute mode")
	}
}

func BenchmarkOEPPermute1024(b *testing.B) {
	ring := share.Ring{Bits: 64}
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	const n = 1024
	sA := make([]uint64, n)
	sB := make([]uint64, n)
	xi := rand.New(rand.NewSource(1)).Perm(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) ([]uint64, error) { return RunPermuteProgrammer(p, xi, sA) },
			func(p *mpc.Party) ([]uint64, error) { return RunPermuteHelper(p, n, sB) },
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}
