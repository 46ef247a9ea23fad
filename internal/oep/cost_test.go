package oep

import (
	"math/rand"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/ot"
	"secyan/internal/share"
)

// TestGatesMatchesBuildPlan pins the closed-form gate count to the gate
// sequence the protocol actually executes.
func TestGatesMatchesBuildPlan(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100}
	for _, m := range sizes {
		pl, _, err := buildPlan(m, m, true)
		if err != nil {
			t.Fatalf("buildPlan(%d, %d, bijection): %v", m, m, err)
		}
		if got, want := Gates(m, m, true), len(pl.gates); got != want {
			t.Fatalf("Gates(%d, %d, bijection) = %d, plan has %d", m, m, got, want)
		}
		for _, n := range sizes {
			pl, _, err := buildPlan(m, n, false)
			if err != nil {
				t.Fatalf("buildPlan(%d, %d): %v", m, n, err)
			}
			if got, want := Gates(m, n, false), len(pl.gates); got != want {
				t.Fatalf("Gates(%d, %d) = %d, plan has %d", m, n, got, want)
			}
		}
	}
}

// TestCostExactAtRingWidths runs both OEP variants at ring widths that
// pack a gate's two halves into whole bytes (32, 64) and into a ragged
// last byte (13), checks the reconstructed outputs modulo 2^ℓ and pins
// the measured traffic, direct and pooled, to Cost and to the pooled
// closed form, in one round trip: two messages.
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
				want := Cost(sh.m, sh.n, ell, sh.bijection)
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
