package psi

import (
	"math/rand"
	"testing"

	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/oep"
	"secyan/internal/ot"
	"secyan/internal/share"
)

// warmOT forces both OT-extension sessions and the KKRT extension of
// Alice-receives PSIs into existence so that the measured PSI traffic
// excludes one-time setup.
func warmOT(t testing.TB, alice, bob *mpc.Party) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		if _, err := bob.OTReceiver(); err != nil {
			done <- err
			return
		}
		if _, err := bob.OTSender(); err != nil {
			done <- err
			return
		}
		_, err := bob.KKRTSender()
		done <- err
	}()
	if _, err := alice.OTSender(); err != nil {
		t.Fatalf("alice OTSender: %v", err)
	}
	if _, err := alice.OTReceiver(); err != nil {
		t.Fatalf("alice OTReceiver: %v", err)
	}
	if _, err := alice.KKRTReceiver(); err != nil {
		t.Fatalf("alice KKRTReceiver: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("bob OT setup: %v", err)
	}
}

// demandBytes is the direct traffic of one execution's bins as the plan
// compiler prices them from Demand: the seed, the KKRT batch of B bins,
// the hint, the ρ-OT, and the circuit's messages and label batch.
func demandBytes(pr Params, d Demand) int64 {
	c := gc.DimsOf(d.Circuit())
	return int64(d.Seed) + ot.KKRTCost(pr.B) + int64(d.Hint) + ot.CorrelatedCost(pr.B, d.RhoLen) +
		c.MessageCost() + ot.ExtOfflineCost(c.EvalInputs)
}

// TestCostExact pins the measured traffic of real executions across set
// sizes to their Demand — for the indexed PSI, plus its two OEPs, one
// correlated-OT batch of oep.MsgLen-byte messages per gate each.
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
			before := alice.Conn.Stats().TotalBytes()
			done := make(chan error, 1)
			go func() { done <- send(bob) }()
			if err := recv(alice); err != nil {
				t.Fatalf("%s m=%d n=%d receiver: %v", name, sz.m, sz.n, err)
			}
			if err := <-done; err != nil {
				t.Fatalf("%s m=%d n=%d sender: %v", name, sz.m, sz.n, err)
			}
			if got := alice.Conn.Stats().TotalBytes() - before; got != want {
				t.Fatalf("%s m=%d n=%d moved %d bytes, predictor says %d", name, sz.m, sz.n, got, want)
			}
		}

		pr := NewParams(sz.m, sz.n)
		npb := pr.N + pr.B
		run("direct", demandBytes(pr, pr.Demands(ring.Bits, false)),
			func(a *mpc.Party) error { _, err := RunReceiver(a, xs, sz.n); return err },
			func(b *mpc.Party) error { _, err := RunSender(b, ys, payloads, sz.m); return err })

		zeroShares := make([]uint64, sz.n)
		oeps := ot.CorrelatedCost(oep.Gates(npb, npb, true), oep.MsgLen(ring.Bits)) +
			ot.CorrelatedCost(oep.Gates(npb, pr.B, false), oep.MsgLen(ring.Bits))
		run("indexed", demandBytes(pr, pr.Demands(ring.Bits, true))+oeps,
			func(a *mpc.Party) error { _, err := RunSharedPayloadReceiver(a, xs, sz.n, zeroShares); return err },
			func(b *mpc.Party) error { _, err := RunSharedPayloadSender(b, ys, payloads, sz.m); return err })
	}
}

// TestCircuitDimsMatchBuiltCircuits pins the slot-built per-bin circuit
// against the same bin gadget looped B times in one builder, for every
// bin count up to 64 and a handful of larger ones, and pins the gadget
// itself to one comparison per bin: τ − 1 AND gates, no ANDG, τ evaluator
// inputs and one select of two w + ℓ + 1-bit words, whatever the sender's
// set size N — the planner prices every PSI step from these dimensions,
// and the hint from the store's m(3N) slots.
func TestCircuitDimsMatchBuiltCircuits(t *testing.T) {
	const ell = 32
	sizes := []int{97, 200, 333}
	for b := 1; b <= 64; b++ {
		sizes = append(sizes, b)
	}
	for name, w := range map[string]int{"direct": ell, "clear-index": 11} {
		for _, n := range []int{1, 5, 44} {
			for _, bins := range sizes {
				pr := Params{B: bins, N: n}
				looped := gc.NewBuilder()
				for i := 0; i < bins; i++ {
					binGadget(looped, pr.tau(), w, ell)
				}
				c := buildCircuit(pr, w, ell)
				if got, want := gc.DimsOf(c), gc.DimsOf(looped.Build()); got != want {
					t.Fatalf("%s B=%d N=%d: slot-built %+v, looped %+v", name, bins, n, got, want)
				}
				if name == "clear-index" {
					pr.N = 1<<11 - bins // so that idxWidth(N+B) is the 11 bits built above
				}
				d := pr.Demands(ell, name == "clear-index")
				if d.RhoLen != (w+7)/8 || d.Hint != okvsSlots(3*pr.N, bandBits)*pr.hint(w).slotBytes() || gc.DimsOf(d.Circuit()) != gc.DimsOf(c) {
					t.Fatalf("%s B=%d: demands %+v with circuit %+v, built %+v",
						name, bins, d, gc.DimsOf(d.Circuit()), gc.DimsOf(c))
				}
				if c.NumAnd != pr.tau()-1 || c.NumAndG != 0 || len(c.EvalInputs) != pr.tau() ||
					len(c.GarblerInputs) != 0 || len(c.EvalOutputs) != 0 {
					t.Fatalf("%s B=%d N=%d: bin gadget has %d AND, %d ANDG, %d evaluator inputs, %d outputs",
						name, bins, n, c.NumAnd, c.NumAndG, len(c.EvalInputs), len(c.EvalOutputs))
				}
				if dims := gc.DimsOf(c); dims.PayloadBytes != bins*2*((w+ell+1+7)/8) {
					t.Fatalf("%s B=%d: %d select bytes, want two %d-bit words per bin", name, bins, dims.PayloadBytes, w+ell+1)
				}
			}
		}
	}
}
