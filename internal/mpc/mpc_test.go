package mpc

import (
	"testing"

	"secyan/internal/gc"
	"secyan/internal/obs"
	"secyan/internal/share"
)

func TestShareRevealRoundTrip(t *testing.T) {
	alice, bob := Pair(share.Ring{Bits: 32})
	defer alice.Conn.Close()
	defer bob.Conn.Close()

	vals := []uint64{1, 2, 3, 0xFFFFFFFF}
	aShares, bShares, err := Run2PC(alice, bob,
		func(p *Party) ([]uint64, error) { return p.ShareToPeer(vals) },
		func(p *Party) ([]uint64, error) { return p.RecvShares(len(vals)) },
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if alice.Ring.Combine(aShares[i], bShares[i]) != alice.Ring.Mask(v) {
			t.Fatalf("index %d does not reconstruct", i)
		}
	}

	// Reveal to Alice.
	got, _, err := Run2PC(alice, bob,
		func(p *Party) ([]uint64, error) { return p.RecvReveal(aShares) },
		func(p *Party) (struct{}, error) { return struct{}{}, p.RevealToPeer(bShares) },
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got[i] != alice.Ring.Mask(v) {
			t.Fatalf("reveal index %d: %d != %d", i, got[i], v)
		}
	}
}

func TestRunCircuitBothGarblerRoles(t *testing.T) {
	// out = x + y with x from Alice, y from Bob, revealed to both;
	// exercised once with Bob garbling and once with Alice garbling.
	for _, garbler := range []Role{Bob, Alice} {
		b := gc.NewBuilder()
		var x, y gc.Word
		if garbler == Bob {
			y = b.GarblerInputWord(16) // Bob's input
			x = b.EvalInputWord(16)    // Alice's input
		} else {
			x = b.GarblerInputWord(16)
			y = b.EvalInputWord(16)
		}
		sum := b.Add(x, y)
		b.OutputWordToEval(sum)
		b.OutputWordToGarbler(sum)
		c := b.Build()

		alice, bob := Pair(share.Ring{Bits: 16})
		aOut, bOut, err := Run2PC(alice, bob,
			func(p *Party) ([]bool, error) { return p.RunCircuit(c, gc.BitsOfUint(1200, 16), nil, garbler) },
			func(p *Party) ([]bool, error) { return p.RunCircuit(c, gc.BitsOfUint(34, 16), nil, garbler) },
		)
		alice.Conn.Close()
		bob.Conn.Close()
		if err != nil {
			t.Fatalf("garbler=%v: %v", garbler, err)
		}
		if gc.UintOfBits(aOut) != 1234 || gc.UintOfBits(bOut) != 1234 {
			t.Fatalf("garbler=%v: got %d / %d, want 1234", garbler, gc.UintOfBits(aOut), gc.UintOfBits(bOut))
		}
	}
}

func TestOTSessionsAreCached(t *testing.T) {
	alice, bob := Pair(share.Ring{})
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	_, _, err := Run2PC(alice, bob,
		func(p *Party) (any, error) {
			s1, err := p.OTSender()
			if err != nil {
				return nil, err
			}
			s2, err := p.OTSender()
			if err != nil {
				return nil, err
			}
			if s1 != s2 {
				t.Error("OTSender not cached")
			}
			return nil, nil
		},
		func(p *Party) (any, error) {
			r1, err := p.OTReceiver()
			if err != nil {
				return nil, err
			}
			r2, err := p.OTReceiver()
			if err != nil {
				return nil, err
			}
			if r1 != r2 {
				t.Error("OTReceiver not cached")
			}
			return nil, nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaultRing(t *testing.T) {
	alice, bob := Pair(share.Ring{})
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	if alice.Ring.Bits != share.Default.Bits || bob.Ring.Bits != share.Default.Bits {
		t.Fatal("default ring not applied")
	}
	if Alice.Other() != Bob || Bob.Other() != Alice {
		t.Fatal("Other")
	}
	if Alice.String() != "Alice" || Bob.String() != "Bob" {
		t.Fatal("String")
	}
}

// TestRunCircuitQueueMatchesSlotCount pins the staged-circuit queue's
// shape check against slot replication: material garbled for the same
// slot repeated a different number of times must be a miss — dropped,
// with the circuit run on the direct path and still correct — while an
// equal count is consumed from the queue.
func TestRunCircuitQueueMatchesSlotCount(t *testing.T) {
	build := func(slots int) *gc.Circuit {
		b := gc.NewBuilder()
		sum := b.Add(b.GarblerInputWord(8), b.EvalInputWord(8))
		b.OutputWordToEval(sum)
		b.OutputWordToGarbler(b.XORGWord(sum, b.PrivateWord(8)))
		return b.BuildSlots(slots)
	}
	const slots = 9
	var gBits, eBits, priv []bool
	for s := 0; s < slots; s++ {
		gBits = gc.AppendBits(gBits, uint64(10+s), 8)
		eBits = gc.AppendBits(eBits, uint64(3*s), 8)
		priv = gc.AppendBits(priv, 0xF0, 8)
	}
	for _, tc := range []struct {
		staged  int
		wantHit bool
	}{{slots, true}, {slots - 1, false}, {1, false}} {
		obs.Enable()
		hits0, misses0 := mPreCircHits.Value(), mPreCircMisses.Value()
		alice, bob := Pair(share.Ring{Bits: 8})
		bob.EnqueuePreGarbled(gc.GarbleAhead(build(tc.staged)))
		bob.EnqueuePreGarbled(gc.GarbleAhead(build(slots))) // dropped with the queue on a miss
		c := build(slots)
		aOut, bOut, err := Run2PC(alice, bob,
			func(p *Party) ([]bool, error) { return p.RunCircuit(c, eBits, nil, Bob) },
			func(p *Party) ([]bool, error) { return p.RunCircuit(c, gBits, priv, Bob) },
		)
		alice.Conn.Close()
		bob.Conn.Close()
		hits, misses := mPreCircHits.Value()-hits0, mPreCircMisses.Value()-misses0
		obs.Disable()
		if err != nil {
			t.Fatalf("staged %d slots: %v", tc.staged, err)
		}
		for s := 0; s < slots; s++ {
			want := uint64(10+s+3*s) & 0xFF
			if got := gc.UintOfBits(aOut[8*s : 8*s+8]); got != want {
				t.Fatalf("staged %d slots: evaluator slot %d = %d, want %d", tc.staged, s, got, want)
			}
			if got := gc.UintOfBits(bOut[8*s : 8*s+8]); got != want^0xF0 {
				t.Fatalf("staged %d slots: garbler slot %d = %d, want %d", tc.staged, s, got, want^0xF0)
			}
		}
		wantQueue := 0
		if tc.wantHit {
			wantQueue = 1
		}
		if got := len(bob.state().preGarb); got != wantQueue {
			t.Fatalf("staged %d slots: %d circuits left in the queue, want %d", tc.staged, got, wantQueue)
		}
		if tc.wantHit != (hits == 1) || tc.wantHit != (misses == 0) {
			t.Fatalf("staged %d slots: %d hits, %d misses", tc.staged, hits, misses)
		}
	}
}
