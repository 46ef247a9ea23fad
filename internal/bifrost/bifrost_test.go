package bifrost

import (
	"math/rand"
	"testing"

	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/share"
)

// makeSets builds distinct X and unique Y with a planted intersection.
func makeSets(rng *rand.Rand, m, n, common int) (xs, ys []uint64) {
	used := map[uint64]bool{}
	fresh := func() uint64 {
		for {
			v := rng.Uint64() & MaxElement
			if !used[v] {
				used[v] = true
				return v
			}
		}
	}
	for i := 0; i < common; i++ {
		v := fresh()
		xs = append(xs, v)
		ys = append(ys, v)
	}
	for len(xs) < m {
		xs = append(xs, fresh())
	}
	for len(ys) < n {
		ys = append(ys, fresh())
	}
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	rng.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
	return xs, ys
}

func runJoin(t *testing.T, ring share.Ring, xs, ys, payloads []uint64) (ra, rb *Result) {
	t.Helper()
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	ra, rb, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*Result, error) { return RunReceiver(p, xs, len(ys)) },
		func(p *mpc.Party) (*Result, error) { return RunSender(p, ys, payloads, len(xs)) },
	)
	if err != nil {
		t.Fatal(err)
	}
	return ra, rb
}

func TestJoinCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ring := share.Ring{Bits: 32}
	for _, tc := range []struct{ m, n, common int }{
		{1, 1, 1}, {1, 1, 0}, {10, 10, 5}, {30, 20, 7}, {5, 40, 3}, {40, 5, 2},
	} {
		xs, ys := makeSets(rng, tc.m, tc.n, tc.common)
		payloads := make([]uint64, len(ys))
		for i := range payloads {
			payloads[i] = uint64(rng.Intn(1 << 20))
		}
		ra, rb := runJoin(t, ring, xs, ys, payloads)
		want := map[uint64]uint64{}
		for j, y := range ys {
			want[y] = payloads[j]
		}
		if len(ra.PayShares) != ra.Params.Slots() || len(rb.PayShares) != ra.Params.Slots() {
			t.Fatalf("case %+v: share lengths %d/%d, want %d", tc, len(ra.PayShares), len(rb.PayShares), ra.Params.Slots())
		}
		claimed := map[int]bool{}
		for _, x := range xs {
			s, ok := ra.SlotOf[x]
			if !ok {
				t.Fatalf("case %+v: element %d has no slot", tc, x)
			}
			if claimed[s] {
				t.Fatalf("case %+v: slot %d claimed twice", tc, s)
			}
			claimed[s] = true
			pay := ring.Combine(ra.PayShares[s], rb.PayShares[s])
			if pay != ring.Mask(want[x]) {
				t.Errorf("case %+v: element %d pay = %d, want %d", tc, x, pay, want[x])
			}
		}
		// Unclaimed (dummy) slots must share to zero.
		for s := 0; s < ra.Params.Slots(); s++ {
			if claimed[s] {
				continue
			}
			if pay := ring.Combine(ra.PayShares[s], rb.PayShares[s]); pay != 0 {
				t.Errorf("case %+v: dummy slot %d pay = %d, want 0", tc, s, pay)
			}
		}
	}
}

func TestSenderRejectsDuplicateKeys(t *testing.T) {
	ring := share.Ring{Bits: 32}
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	_, _, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*Result, error) { return RunReceiver(p, []uint64{1, 2}, 3) },
		func(p *mpc.Party) (*Result, error) {
			return RunSender(p, []uint64{7, 7, 9}, []uint64{1, 2, 3}, 2)
		},
	)
	if err == nil {
		t.Fatal("duplicate sender keys accepted; the unique-key precondition must be enforced")
	}
}

func TestParamsLoadBoundsCoverSets(t *testing.T) {
	for _, tc := range []struct{ m, n int }{{1, 1}, {5, 40}, {40, 5}, {100, 100}, {1000, 50}} {
		pr := NewParams(tc.m, tc.n)
		if pr.B < 1 || pr.R < 1 || pr.L < 1 {
			t.Fatalf("NewParams(%d,%d) = %+v: degenerate dimension", tc.m, tc.n, pr)
		}
		if pr.B*pr.R < tc.m {
			t.Fatalf("NewParams(%d,%d) = %+v: receiver capacity %d < m", tc.m, tc.n, pr, pr.B*pr.R)
		}
		if pr.B*pr.L < tc.n {
			t.Fatalf("NewParams(%d,%d) = %+v: sender capacity %d < n", tc.m, tc.n, pr, pr.B*pr.L)
		}
	}
}

// TestAlignCostExact pins AlignCost to the measured traffic of real
// executions, the property the plan compiler's estimates rely on.
func TestAlignCostExact(t *testing.T) {
	ring := share.Ring{Bits: 32}
	rng := rand.New(rand.NewSource(17))
	for _, sz := range []struct{ m, n int }{{3, 4}, {10, 25}, {40, 17}} {
		xs, ys := makeSets(rng, sz.m, sz.n, 2)
		payloads := make([]uint64, sz.n)
		for i := range payloads {
			payloads[i] = uint64(rng.Intn(1000))
		}
		alice, bob := mpc.Pair(ring)
		warmOT(t, alice, bob)
		alice.Conn.ResetStats()
		bob.Conn.ResetStats()
		_, _, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) (*Result, error) { return RunReceiver(p, xs, sz.n) },
			func(p *mpc.Party) (*Result, error) { return RunSender(p, ys, payloads, sz.m) },
		)
		if err != nil {
			t.Fatalf("m=%d n=%d: %v", sz.m, sz.n, err)
		}
		want := AlignCost(sz.m, sz.n, ring.Bits)
		if got := alice.Conn.Stats().TotalBytes(); got != want {
			t.Fatalf("m=%d n=%d moved %d bytes, predictor says %d", sz.m, sz.n, got, want)
		}
		alice.Conn.Close()
		bob.Conn.Close()
	}
}

// warmOT forces both OT-extension sessions into existence so measured
// traffic excludes one-time base-OT setup (same helper as psi's tests).
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

// TestCircuitDimsMatchBuiltCircuits pins the slot-built comparison
// circuit against the same bin gadget looped B times in one builder —
// how it was built before circuits had slots — for every bin count up to
// 64 and a handful of larger ones: the planner prices every bifrost bid
// from these dimensions, and the wire format must not have moved.
func TestCircuitDimsMatchBuiltCircuits(t *testing.T) {
	const ell = 32
	sizes := []int{97, 200, 333}
	for b := 1; b <= 64; b++ {
		sizes = append(sizes, b)
	}
	for _, rl := range [][2]int{{1, 1}, {3, 4}} {
		for _, b := range sizes {
			pr := Params{B: b, R: rl[0], L: rl[1]}
			looped := gc.NewBuilder()
			for i := 0; i < b; i++ {
				binGadget(looped, pr, ell)
			}
			if got, want := gc.DimsOf(buildCircuit(pr, ell)), gc.DimsOf(looped.Build()); got != want {
				t.Fatalf("B=%d R=%d L=%d: slot-built %+v, looped %+v", b, rl[0], rl[1], got, want)
			}
		}
	}
}
