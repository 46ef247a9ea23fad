package gcbaseline

import (
	"math/rand"
	"testing"

	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/share"
)

func TestAlignSharesCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ring := share.Ring{Bits: 32}
	for _, tc := range []struct{ m, n int }{{1, 1}, {7, 3}, {12, 12}, {5, 20}} {
		childKeys := make([]uint64, tc.n)
		childVals := make([]uint64, tc.n)
		for i := range childKeys {
			childKeys[i] = uint64(100 + i)
			childVals[i] = uint64(rng.Intn(1 << 16))
		}
		parentKeys := make([]uint64, tc.m)
		for j := range parentKeys {
			if rng.Intn(2) == 0 && tc.n > 0 {
				parentKeys[j] = childKeys[rng.Intn(tc.n)]
			} else {
				parentKeys[j] = uint64(1_000_000 + j) // no match
			}
		}
		// Split the child annotations into shares.
		evalShares := make([]uint64, tc.n)
		garbShares := make([]uint64, tc.n)
		for i := range childVals {
			evalShares[i] = ring.Mask(rng.Uint64())
			garbShares[i] = ring.Sub(childVals[i], evalShares[i])
		}
		alice, bob := mpc.Pair(ring)
		za, zb, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) ([]uint64, error) { return RunAlignEvaluator(p, parentKeys, evalShares) },
			func(p *mpc.Party) ([]uint64, error) { return RunAlignGarbler(p, childKeys, garbShares, tc.m) },
		)
		alice.Conn.Close()
		bob.Conn.Close()
		if err != nil {
			t.Fatalf("case %+v: %v", tc, err)
		}
		for j, pk := range parentKeys {
			var want uint64
			for i, ck := range childKeys {
				if ck == pk {
					want = childVals[i]
				}
			}
			if got := ring.Combine(za[j], zb[j]); got != ring.Mask(want) {
				t.Errorf("case %+v: parent %d: z = %d, want %d", tc, j, got, want)
			}
		}
	}
}

// TestBackendCostExact pins AlignCost to measured traffic — the plan
// compiler prices the gc semijoin bid with this predictor.
func TestBackendCostExact(t *testing.T) {
	ring := share.Ring{Bits: 32}
	rng := rand.New(rand.NewSource(3))

	measure := func(fa func(p *mpc.Party) error, fb func(p *mpc.Party) error) int64 {
		alice, bob := mpc.Pair(ring)
		defer alice.Conn.Close()
		defer bob.Conn.Close()
		warmOT(t, alice, bob)
		alice.Conn.ResetStats()
		done := make(chan error, 1)
		go func() { done <- fb(bob) }()
		if err := fa(alice); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return alice.Conn.Stats().TotalBytes()
	}

	for _, tc := range []struct{ m, n int }{{3, 2}, {60, 10}} {
		childKeys := make([]uint64, tc.n)
		shares := make([]uint64, tc.n)
		for i := range childKeys {
			childKeys[i] = uint64(i)
			shares[i] = uint64(rng.Intn(1000))
		}
		parentKeys := make([]uint64, tc.m)
		for j := range parentKeys {
			parentKeys[j] = uint64(j % (tc.n + 2))
		}
		got := measure(
			func(p *mpc.Party) error { _, err := RunAlignEvaluator(p, parentKeys, make([]uint64, tc.n)); return err },
			func(p *mpc.Party) error { _, err := RunAlignGarbler(p, childKeys, shares, tc.m); return err })
		if want := AlignCost(tc.m, tc.n, ring.Bits); got != want {
			t.Fatalf("align m=%d n=%d moved %d bytes, predictor says %d", tc.m, tc.n, got, want)
		}
	}
}

// warmOT forces both OT-extension sessions into existence so measured
// traffic excludes one-time base-OT setup.
func warmOT(t *testing.T, alice, bob *mpc.Party) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		if _, err := bob.OTReceiver(); err != nil {
			done <- err
			return
		}
		_, err := bob.OTSender()
		done <- err
	}()
	if _, err := alice.OTSender(); err != nil {
		t.Fatalf("alice OTSender: %v", err)
	}
	if _, err := alice.OTReceiver(); err != nil {
		t.Fatalf("alice OTReceiver: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("bob OT setup: %v", err)
	}
}

// TestCostsMatchBuiltCircuits pins the interpolated AlignCost against
// circuits built outright, for every size up to 64 and a handful of
// larger ones.
func TestCostsMatchBuiltCircuits(t *testing.T) {
	const ell = 32
	sizes := []int{97, 128, 256}
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for _, children := range []int{1, 7} {
			if got, want := AlignCost(n, children, ell), gc.DimsOf(AlignCircuit(n, children, ell)).MessageCost(); got != want {
				t.Fatalf("align m=%d n=%d: predicted %d bytes, built circuit costs %d", n, children, got, want)
			}
		}
	}
}
