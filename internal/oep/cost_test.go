package oep

import (
	"math/rand"
	"runtime"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/ot"
	"secyan/internal/permnet"
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
		if got, want := Gates(m, n, bijection), pl.gates(); got != want {
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

// TestBuildPlanPresized pins the gate lists to their closed form in
// capacity as well as length: buildPlan allocates each network's swaps
// once, at the size permnet.Swaps predicts, and never grows them, and
// the plan's gates add up to Gates.
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
				if got, want := pl.gates(), Gates(m, n, bijection); got != want {
					t.Fatalf("buildPlan(%d, %d, %v): %d gates, want %d", m, n, bijection, got, want)
				}
				for _, nw := range []*permnet.Network{pl.pre, pl.post} {
					if nw != nil && (len(nw.Swaps) != permnet.Swaps(nw.Size) || cap(nw.Swaps) != len(nw.Swaps)) {
						t.Fatalf("buildPlan(%d, %d, %v): a %d-wire network has len %d, cap %d, want both %d",
							m, n, bijection, nw.Size, len(nw.Swaps), cap(nw.Swaps), permnet.Swaps(nw.Size))
					}
				}
			}
		}
	}
}

// TestBuildPlanAllocatesOneGateList pins what a party allocates for a
// plan: its networks' swap lists, 8 B per gate (one list when Pre and
// Post share a width), plus at most one 8 KiB page of size-class
// rounding per list and 512 B of structs — no second, per-gate copy of
// the sequence, no network built twice and no router state, which only
// the programmer's route builds. A copy of 12 B per gate, or a router's
// 13 B per wire, exceeds the bound at these sizes.
func TestBuildPlanAllocatesOneGateList(t *testing.T) {
	for _, c := range []struct {
		m, n      int
		bijection bool
	}{{1024, 1024, true}, {3000, 1000, false}, {1000, 3000, false}, {2048, 2048, false}} {
		want, lists := 8*permnet.Swaps(c.m), 1
		if !c.bijection {
			want = 8 * permnet.Swaps(max(c.m, c.n))
			if c.m != c.n {
				want, lists = want+8*permnet.Swaps(c.n), 2
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pl, err := buildPlan(c.m, c.n, c.bijection)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(want + lists*8<<10 + 512); got > limit {
			t.Fatalf("buildPlan(%d, %d, %v) allocated %d B for %d gates, want at most %d (8 B per listed swap + 8 KiB per list + 512 B)",
				c.m, c.n, c.bijection, got, pl.gates(), limit)
		}
		t.Logf("buildPlan(%d, %d, %v): %d B for %d gates", c.m, c.n, c.bijection, got, pl.gates())
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
					if got := ring.Add(outA[i], outB[i]); got != vals[src] {
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
