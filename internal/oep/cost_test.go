package oep

import (
	"math/rand"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/ot"
	"secyan/internal/share"
)

// TestGatesMatchesBuildPlan pins the closed-form gate count to the gate
// sequence the protocol actually executes: every shape up to 64 × 64,
// then random shapes up to 10⁵ (skipped under -short).
func TestGatesMatchesBuildPlan(t *testing.T) {
	check := func(m, n int, bijection bool) {
		t.Helper()
		pl, err := buildPlan(m, n, bijection)
		if err != nil {
			t.Fatalf("buildPlan(%d, %d, %v): %v", m, n, bijection, err)
		}
		if got, want := Gates(m, n, bijection), len(pl.gates); got != want {
			t.Fatalf("Gates(%d, %d, %v) = %d, plan has %d", m, n, bijection, got, want)
		}
	}
	for m := 0; m <= 64; m++ {
		check(m, m, true)
		for n := 0; n <= 64; n++ {
			check(m, n, false)
		}
	}
	if testing.Short() {
		return
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		m, n := 1+rng.Intn(100_000), 1+rng.Intn(100_000)
		check(m, n, false)
		check(m, m, true)
	}
}

// TestBuildPlanPresized pins the gate list to its closed form in
// capacity as well as length: buildPlan allocates it once, at the size
// Gates predicts, and never grows it.
func TestBuildPlanPresized(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 5, 6, 7, 63, 64, 65, 100, 1000, 4096}
	for _, m := range sizes {
		for _, n := range sizes {
			for _, bijection := range []bool{false, true} {
				if bijection && m != n {
					continue
				}
				pl, err := buildPlan(m, n, bijection)
				if err != nil {
					t.Fatalf("buildPlan(%d, %d, %v): %v", m, n, bijection, err)
				}
				want := Gates(m, n, bijection)
				if len(pl.gates) != want || cap(pl.gates) != want {
					t.Fatalf("buildPlan(%d, %d, %v): len %d, cap %d, want both %d",
						m, n, bijection, len(pl.gates), cap(pl.gates), want)
				}
			}
		}
	}
}

// TestCostExactAtRingWidths runs both OEP variants at ring widths that
// pack a gate's two halves into whole bytes (32, 64) and into a ragged
// last byte (13), checks the reconstructed outputs modulo 2^ℓ and pins
// the measured traffic, direct and pooled, to one correlated-OT batch
// of MsgLen-byte messages per gate, direct and pooled, in one round
// trip: two messages.
func TestCostExactAtRingWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, ell := range []int{13, 32, 64} {
		ring := share.Ring{Bits: ell}
		alice, bob := mpc.Pair(ring)
		if _, _, err := mpc.Run2PC(alice, bob, // base OTs off the measurement
			func(p *mpc.Party) (*ot.Receiver, error) { return p.OTReceiver() },
			func(p *mpc.Party) (*ot.Sender, error) { return p.OTSender() }); err != nil {
			t.Fatal(err)
		}
		for _, sh := range []struct {
			m, n      int
			bijection bool
		}{{9, 9, true}, {5, 12, false}} {
			for _, pooled := range []bool{false, true} {
				gates := Gates(sh.m, sh.n, sh.bijection)
				if pooled {
					fillBoth(t, alice, bob, gates, MsgLen(ell))
				}
				vals := make([]uint64, sh.m)
				for i := range vals {
					vals[i] = ring.Mask(rng.Uint64())
				}
				xi := make([]int, sh.n)
				if sh.bijection {
					xi = rng.Perm(sh.m)
				} else {
					for i := range xi {
						xi[i] = rng.Intn(sh.m)
					}
				}
				sA, sB := ring.SplitSlice(alice.PRG, vals)
				before := alice.Conn.Stats()
				outA, outB, err := mpc.Run2PC(alice, bob,
					func(p *mpc.Party) ([]uint64, error) {
						if sh.bijection {
							return RunPermuteProgrammer(p, xi, sA)
						}
						return RunProgrammer(p, xi, sh.m, sA)
					},
					func(p *mpc.Party) ([]uint64, error) {
						if sh.bijection {
							return RunPermuteHelper(p, sh.n, sB)
						}
						return RunHelper(p, sh.m, sh.n, sB)
					})
				if err != nil {
					t.Fatalf("ℓ=%d %+v: %v", ell, sh, err)
				}
				for i, src := range xi {
					if got := ring.Combine(outA[i], outB[i]); got != vals[src] {
						t.Fatalf("ℓ=%d %+v pooled=%v: out[%d] = %d, want %d", ell, sh, pooled, i, got, vals[src])
					}
				}
				want := ot.CorrelatedCost(gates, MsgLen(ell))
				if pooled {
					want = ot.CorrelatedOnlineCost(gates, MsgLen(ell))
				}
				after := alice.Conn.Stats()
				if got := after.TotalBytes() - before.TotalBytes(); got != want {
					t.Fatalf("ℓ=%d %+v pooled=%v: moved %d bytes, closed form %d", ell, sh, pooled, got, want)
				}
				if got := after.MessagesSent + after.MessagesRecv - before.MessagesSent - before.MessagesRecv; got != 2 {
					t.Fatalf("ℓ=%d %+v pooled=%v: %d messages, want one round trip", ell, sh, pooled, got)
				}
			}
		}
		alice.Conn.Close()
		bob.Conn.Close()
	}
}
