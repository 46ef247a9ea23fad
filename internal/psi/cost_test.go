package psi

import (
	"math/rand"
	"testing"

	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/share"
)

// warmOT forces both OT-extension sessions into existence so that the
// measured PSI traffic excludes one-time base-OT setup.
func warmOT(t testing.TB, alice, bob *mpc.Party) {
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

// TestCostExact pins DirectCost/IndexedCost to the measured traffic of
// real executions across set sizes.
func TestCostExact(t *testing.T) {
	ring := share.Ring{Bits: 32}
	rng := rand.New(rand.NewSource(7))
	for _, sz := range []struct{ m, n int }{{3, 4}, {10, 25}, {40, 17}} {
		xs, ys := makeSets(rng, sz.m, sz.n, 2)
		payloads := make([]uint64, sz.n)
		for i := range payloads {
			payloads[i] = uint64(rng.Intn(1000))
		}

		run := func(name string, want int64, recv func(a *mpc.Party) error, send func(b *mpc.Party) error) {
			alice, bob := mpc.Pair(ring)
			defer alice.Conn.Close()
			defer bob.Conn.Close()
			warmOT(t, alice, bob)
			alice.Conn.ResetStats()
			bob.Conn.ResetStats()
			done := make(chan error, 1)
			go func() { done <- send(bob) }()
			if err := recv(alice); err != nil {
				t.Fatalf("%s m=%d n=%d receiver: %v", name, sz.m, sz.n, err)
			}
			if err := <-done; err != nil {
				t.Fatalf("%s m=%d n=%d sender: %v", name, sz.m, sz.n, err)
			}
			if got := alice.Conn.Stats().TotalBytes(); got != want {
				t.Fatalf("%s m=%d n=%d moved %d bytes, predictor says %d", name, sz.m, sz.n, got, want)
			}
		}

		run("direct", DirectCost(sz.m, sz.n, ring.Bits),
			func(a *mpc.Party) error { _, err := RunReceiver(a, xs, sz.n); return err },
			func(b *mpc.Party) error { _, err := RunSender(b, ys, payloads, sz.m); return err })

		run("indexed-plain", IndexedCost(sz.m, sz.n, ring.Bits, false),
			func(a *mpc.Party) error { _, err := RunIndexedPlainReceiver(a, xs, sz.n); return err },
			func(b *mpc.Party) error { _, err := RunIndexedPlainSender(b, ys, payloads, sz.m); return err })

		zeroShares := make([]uint64, sz.n)
		run("indexed-shared", IndexedCost(sz.m, sz.n, ring.Bits, true),
			func(a *mpc.Party) error { _, err := RunSharedPayloadReceiver(a, xs, sz.n, zeroShares); return err },
			func(b *mpc.Party) error { _, err := RunSharedPayloadSender(b, ys, payloads, sz.m); return err })
	}
}

// TestCircuitDimsMatchBuiltCircuits pins the slot-built per-bin circuit
// against the same bin gadget looped B times in one builder, for every
// bin count up to 64 and a handful of larger ones, and pins the gadget
// itself to one comparison per bin: τ − 1 + w AND gates and ℓ
// single-ciphertext ones whatever the sender's load bound L — the
// planner prices every PSI bid from these dimensions.
func TestCircuitDimsMatchBuiltCircuits(t *testing.T) {
	const ell = 32
	sizes := []int{97, 200, 333}
	for b := 1; b <= 64; b++ {
		sizes = append(sizes, b)
	}
	for name, w := range map[string]int{"direct": ell, "clear-index": 11} {
		for _, l := range []int{1, 5, 44} {
			for _, bins := range sizes {
				pr := Params{B: bins, L: l}
				looped := gc.NewBuilder()
				for i := 0; i < bins; i++ {
					binGadget(looped, pr.tau(), w, ell)
				}
				c := buildCircuit(pr, w, ell)
				if got, want := gc.DimsOf(c), gc.DimsOf(looped.Build()); got != want {
					t.Fatalf("%s B=%d L=%d: slot-built %+v, looped %+v", name, bins, l, got, want)
				}
				if name == "clear-index" {
					pr.N = 1<<11 - bins // so that idxWidth(N+B) is the 11 bits built above
				}
				oprf, inputs, circ := pr.Demands(ell, name == "clear-index")
				if oprf != bins*keyBits || inputs != gc.DimsOf(c).EvalInputs || gc.DimsOf(circ()) != gc.DimsOf(c) {
					t.Fatalf("%s B=%d: demands (%d, %d, %+v), circuit %+v",
						name, bins, oprf, inputs, gc.DimsOf(circ()), gc.DimsOf(c))
				}
				if c.NumAnd != pr.tau()-1+w || c.NumAndG != ell || len(c.EvalInputs) != pr.tau()+w || len(c.GarblerInputs) != 0 {
					t.Fatalf("%s B=%d L=%d: bin gadget has %d AND, %d ANDG, %d evaluator inputs",
						name, bins, l, c.NumAnd, c.NumAndG, len(c.EvalInputs))
				}
			}
		}
	}
}
