package mpc

import (
	"errors"
	"testing"

	"secyan/internal/gc"
	"secyan/internal/obs"
	"secyan/internal/ot"
	"secyan/internal/share"
	"secyan/internal/transport"
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
		if alice.Ring.Add(aShares[i], bShares[i]) != alice.Ring.Mask(v) {
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
			func(p *Party) ([]bool, error) { return p.RunCircuit(c, bits16(1200), nil, garbler) },
			func(p *Party) ([]bool, error) { return p.RunCircuit(c, bits16(34), nil, garbler) },
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

// TestSecondOTDirectionIsDerived sets up both OT directions, either one
// first: the pair runs one P-256 batch — ot.base.send and ot.base.recv
// once each — and derives the other direction for ot.DeriveCost bytes,
// and chosen-message OTs then work both ways.
func TestSecondOTDirectionIsDerived(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	for _, first := range []Role{Alice, Bob} {
		alice, bob := Pair(share.Ring{})
		send0, _ := obs.KernelTotal("ot.base.send")
		recv0, _ := obs.KernelTotal("ot.base.recv")
		setup := func(p *Party) (any, error) {
			if p.Role == first {
				if _, err := p.OTSender(); err != nil {
					return nil, err
				}
				return p.OTReceiver()
			}
			if _, err := p.OTReceiver(); err != nil {
				return nil, err
			}
			return p.OTSender()
		}
		if _, _, err := Run2PC(alice, bob, setup, setup); err != nil {
			t.Fatalf("%v first: %v", first, err)
		}
		send1, _ := obs.KernelTotal("ot.base.send")
		recv1, _ := obs.KernelTotal("ot.base.recv")
		if send1-send0 != 128 || recv1-recv0 != 128 {
			t.Fatalf("%v first: %d/%d base-OT instances sent/received, want one batch of 128", first, send1-send0, recv1-recv0)
		}
		if got, want := alice.Conn.Stats().TotalBytes(), ot.SetupCost()+ot.DeriveCost(); got != want {
			t.Fatalf("%v first: setup moved %d bytes, want %d", first, got, want)
		}
		for _, sender := range []Role{Alice, Bob} {
			pairs := [][2][]byte{{[]byte("zero-0"), []byte("one--0")}, {[]byte("zero-1"), []byte("one--1")}}
			choices := []bool{true, false}
			snd := func(p *Party) (any, error) {
				s, err := p.OTSender()
				if err != nil {
					return nil, err
				}
				return nil, s.Send(pairs)
			}
			rcv := func(p *Party) (any, error) {
				r, err := p.OTReceiver()
				if err != nil {
					return nil, err
				}
				return r.Receive(choices, 6)
			}
			fa, fb := snd, rcv
			if sender == Bob {
				fa, fb = rcv, snd
			}
			a, b, err := Run2PC(alice, bob, fa, fb)
			if err != nil {
				t.Fatalf("%v first, %v sends: %v", first, sender, err)
			}
			got := b
			if sender == Bob {
				got = a
			}
			msgs := got.([][]byte)
			if string(msgs[0]) != "one--0" || string(msgs[1]) != "zero-1" {
				t.Fatalf("%v first, %v sends: received %q", first, sender, msgs)
			}
		}
		alice.Conn.Close()
		bob.Conn.Close()
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
// equal count is consumed from the queue: served when its label OT is
// pooled, dropped for a fresh garble when it is direct.
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
		staged    int
		pooled    bool
		wantHit   bool
		wantQueue int
	}{{slots, true, true, 1}, {slots, false, false, 1}, {slots - 1, true, false, 0}, {1, true, false, 0}} {
		obs.Enable()
		hits0, misses0 := mPreCircHits.Value(), mPreCircMisses.Value()
		alice, bob := Pair(share.Ring{Bits: 8})
		bob.EnqueuePreGarbled(gc.GarbleAhead(build(tc.staged)))
		bob.EnqueuePreGarbled(gc.GarbleAhead(build(slots))) // dropped with the queue on a mismatch
		c := build(slots)
		if tc.pooled {
			if _, _, err := Run2PC(alice, bob,
				func(p *Party) (any, error) { r, err := p.OTReceiver(); return nil, fill(r, err, len(eBits)) },
				func(p *Party) (any, error) { s, err := p.OTSender(); return nil, fill(s, err, len(eBits)) },
			); err != nil {
				t.Fatal(err)
			}
		}
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
		if got := len(bob.state().preGarb); got != tc.wantQueue {
			t.Fatalf("staged %d slots: %d circuits left in the queue, want %d", tc.staged, got, tc.wantQueue)
		}
		if tc.wantHit != (hits == 1) || tc.wantHit != (misses == 0) {
			t.Fatalf("staged %d slots: %d hits, %d misses", tc.staged, hits, misses)
		}
	}
}

// fill fills one label batch of m OTs into an OT endpoint's pool.
func fill(e interface{ FillRandom(m, msgLen int) error }, err error, m int) error {
	if err != nil {
		return err
	}
	return e.FillRandom(m, 16)
}

// TestShareReceivesAreSizeChecked plays a peer sending a short, a long
// and an odd-length share message to RecvShares and RecvReveal: each
// must be a *transport.SizeError before anything is decoded.
func TestShareReceivesAreSizeChecked(t *testing.T) {
	alice, bob := Pair(share.Ring{Bits: 32})
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	const n = 5
	for _, site := range []struct {
		name string
		recv func() error
	}{
		{"RecvShares", func() error { _, err := alice.RecvShares(n); return err }},
		{"RecvReveal", func() error { _, err := alice.RecvReveal(make([]uint64, n)); return err }},
	} {
		for _, tc := range []struct {
			name string
			len  int
		}{{"short", 8 * (n - 1)}, {"long", 8 * (n + 1)}, {"odd", 8*n - 3}} {
			if err := bob.Conn.Send(make([]byte, tc.len)); err != nil {
				t.Fatal(err)
			}
			var se *transport.SizeError
			if err := site.recv(); !errors.As(err, &se) || se.Got != tc.len || se.Want != 8*n {
				t.Fatalf("%s %s: %v, want a *transport.SizeError{Got: %d, Want: %d}", site.name, tc.name, err, tc.len, 8*n)
			}
		}
	}
}

// TestRunCircuitMessageCount pins the label transfer's place in the
// circuit protocol: the evaluator opens the label OT, the garbler answers
// with the garbled message and the OT reply in one message, and the
// evaluator returns the garbler's masked outputs if there are any — 2
// messages, or 3 with garbler outputs, pooled or direct. A circuit
// without evaluator inputs is the garbler's one message.
func TestRunCircuitMessageCount(t *testing.T) {
	build := func(evalIn, garblerOut bool) *gc.Circuit {
		b := gc.NewBuilder()
		x := b.GarblerInputWord(8)
		if evalIn {
			x = b.Add(x, b.EvalInputWord(8))
		}
		b.OutputWordToEval(x)
		if garblerOut {
			b.OutputWordToGarbler(x)
		}
		return b.BuildSlots(3)
	}
	alice, bob := Pair(share.Ring{Bits: 8})
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	if _, _, err := Run2PC(alice, bob, // base OTs off the count
		func(p *Party) (any, error) { _, err := p.OTReceiver(); return nil, err },
		func(p *Party) (any, error) { _, err := p.OTSender(); return nil, err },
	); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		evalIn, garblerOut, pooled bool
		msgs                       int64
	}{
		{true, false, false, 2}, {true, true, false, 3},
		{true, false, true, 2}, {true, true, true, 3},
		{false, false, false, 1}, {false, true, false, 2},
	} {
		c := build(tc.evalIn, tc.garblerOut)
		eBits := make([]bool, c.Slots*len(c.EvalInputs))
		if tc.pooled {
			if _, _, err := Run2PC(alice, bob,
				func(p *Party) (any, error) { r, err := p.OTReceiver(); return nil, fill(r, err, len(eBits)) },
				func(p *Party) (any, error) { s, err := p.OTSender(); return nil, fill(s, err, len(eBits)) },
			); err != nil {
				t.Fatal(err)
			}
		}
		before := alice.Conn.Stats()
		if _, _, err := Run2PC(alice, bob,
			func(p *Party) ([]bool, error) { return p.RunCircuit(c, eBits, nil, Bob) },
			func(p *Party) ([]bool, error) { return p.RunCircuit(c, make([]bool, c.Slots*8), nil, Bob) },
		); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		after := alice.Conn.Stats()
		if got := after.MessagesSent + after.MessagesRecv - before.MessagesSent - before.MessagesRecv; got != tc.msgs {
			t.Fatalf("%+v: %d messages, want %d", tc, got, tc.msgs)
		}
	}
}

// bits16 expands the low 16 bits of v, little-endian.
func bits16(v uint64) []bool {
	out := make([]bool, 16)
	for i := range out {
		out[i] = v>>uint(i)&1 == 1
	}
	return out
}
