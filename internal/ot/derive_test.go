package ot

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"secyan/internal/obs"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// reverse derives the opposite direction of a P-256 pair: rcv's end
// becomes the sender, snd's end the receiver. Each end waits for the
// other's message (the matrix one way, the GGM corrections back), so
// both run at once: senderEndFirst starts Sender.Reverse, which waits for
// the matrix, before Receiver.Reverse; otherwise Receiver.Reverse has
// sent its matrix before Sender.Reverse starts.
func reverse(t *testing.T, snd *Sender, rcv *Receiver, senderEndFirst bool) (*Sender, *Receiver) {
	t.Helper()
	type res struct {
		s   *Sender
		err error
	}
	ch := make(chan res, 1)
	if !senderEndFirst {
		sent := rcv.conn.Stats().MessagesSent
		go func() { s, err := rcv.Reverse(); ch <- res{s, err} }()
		for rcv.conn.Stats().MessagesSent == sent {
			runtime.Gosched()
		}
	}
	done := make(chan struct{})
	var r *Receiver
	var rerr error
	go func() { defer close(done); r, rerr = snd.Reverse() }()
	if senderEndFirst {
		s, err := rcv.Reverse()
		ch <- res{s, err}
	}
	<-done
	if rerr != nil {
		t.Fatalf("Sender.Reverse: %v", rerr)
	}
	rs := <-ch
	if rs.err != nil {
		t.Fatalf("Receiver.Reverse: %v", rs.err)
	}
	return rs.s, r
}

// TestReverseDerivesWorkingDirection runs a P-256 pair and derives the
// opposite direction from it, with either end's Reverse called first and
// both on a fresh pair and after first-direction batches (so the
// bootstrap OTs are not instances 0–127). The setup moves exactly
// DeriveCost bytes in one message each way and runs no base-OT kernel; the
// derived direction's chosen, correlated and random OTs are correct; and
// the first direction keeps working afterwards.
func TestReverseDerivesWorkingDirection(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	for _, tc := range []struct {
		name           string
		senderEndFirst bool
		warm           bool
	}{
		{"receiver-end-first", false, false},
		{"sender-end-first", true, false},
		{"after-batches", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snd, rcv, done := newExtPair(t)
			defer done()
			rng := rand.New(rand.NewSource(31))
			if tc.warm {
				runBatch(t, snd, rcv, rng, 100, 16)
				runRandomBatch(t, snd, rcv, rng, 7, 16)
			}
			before := rcv.conn.Stats()
			base0, _ := obs.KernelTotal("ot.base.")
			s2, r2 := reverse(t, snd, rcv, tc.senderEndFirst)
			after := rcv.conn.Stats()
			if got := after.TotalBytes() - before.TotalBytes(); got != DeriveCost() || got != 3584 {
				t.Fatalf("derivation moved %d bytes, DeriveCost predicts %d", got, DeriveCost())
			}
			if sent, recvd := after.MessagesSent-before.MessagesSent, after.MessagesRecv-before.MessagesRecv; sent != 1 || recvd != 1 {
				t.Fatalf("derivation: the first receiver sent %d and received %d messages, want 1 and 1", sent, recvd)
			}
			if base, _ := obs.KernelTotal("ot.base."); base != base0 {
				t.Fatalf("derivation ran %d base-OT instances", base-base0)
			}
			for _, m := range []int{1, 64, 65, 300} {
				runBatch(t, s2, r2, rng, m, 16)
				runRandomBatch(t, s2, r2, rng, m, 16)
				for name, corr := range correlations(rng, m, 8) {
					runCorrelated(t, s2, r2, rng, m, 8, name, corr.f, corr.check)
				}
			}
			runBatch(t, snd, rcv, rng, 65, 24)
			runRandomBatch(t, snd, rcv, rng, 65, 16)
		})
	}
}

// runCorrelated executes one SendCorrelated/ReceiveCorrelated pair and
// checks the receiver's output against the sender's x0 and correlation.
func runCorrelated(t *testing.T, snd *Sender, rcv *Receiver, rng *rand.Rand, m, msgLen int, name string,
	f Correlation, check func(j int, x0, x1 []byte) bool) {
	t.Helper()
	choices := make([]bool, m)
	for j := range choices {
		choices[j] = rng.Intn(2) == 1
	}
	type res struct {
		x0  []byte
		err error
	}
	ch := make(chan res, 1)
	go func() {
		x0, err := snd.SendCorrelated(m, msgLen, f)
		ch <- res{x0, err}
	}()
	got, err := rcv.ReceiveCorrelated(choices, msgLen)
	if err != nil {
		t.Fatalf("ReceiveCorrelated: %v", err)
	}
	s := <-ch
	if s.err != nil {
		t.Fatalf("SendCorrelated: %v", s.err)
	}
	for j, c := range choices {
		x0, x := s.x0[j*msgLen:(j+1)*msgLen], got[j*msgLen:(j+1)*msgLen]
		if (!c && !bytes.Equal(x, x0)) || (c && !check(j, x0, x)) {
			t.Fatalf("%s m=%d instance %d (choice %v): wrong correlated output", name, m, j, c)
		}
	}
}

// TestReverseLeavesPoolsAligned fills the first direction's pool with a
// batch of exactly the derivation's dimensions (κ OTs of one seed each),
// derives, then drains: the derivation ran direct, so the pooled batch
// is still there for the batch it was filled for, and both ends agree.
func TestReverseLeavesPoolsAligned(t *testing.T) {
	snd, rcv, done := newExtPair(t)
	defer done()
	rng := rand.New(rand.NewSource(32))
	fillBoth(t, snd, rcv, kappa, prf.SeedSize)
	fillBoth(t, snd, rcv, 40, 8)
	before := rcv.conn.Stats().TotalBytes()
	s2, r2 := reverse(t, snd, rcv, true)
	if got := rcv.conn.Stats().TotalBytes() - before; got != DeriveCost() {
		t.Fatalf("derivation moved %d bytes next to a matching pool batch, DeriveCost predicts %d", got, DeriveCost())
	}
	if snd.pool.Len() != 2 || rcv.pool.Len() != 2 {
		t.Fatalf("pools after the derivation: sender %d, receiver %d batches, want 2 each", snd.pool.Len(), rcv.pool.Len())
	}
	for _, d := range []struct{ m, msgLen int }{{kappa, prf.SeedSize}, {40, 8}} {
		choices := make([]bool, d.m)
		for j := range choices {
			choices[j] = rng.Intn(2) == 1
		}
		type res struct {
			b   *SendBatch
			err error
		}
		ch := make(chan res, 1)
		go func() { b, err := snd.BeginCorrelated(d.m, d.msgLen, nil); ch <- res{b, err} }()
		rb, err := rcv.BeginCorrelated(choices, d.msgLen)
		if err != nil {
			t.Fatal(err)
		}
		sb := <-ch
		if sb.err != nil {
			t.Fatal(sb.err)
		}
		if !rb.Pooled || !sb.b.Pooled {
			t.Fatalf("m=%d: batch not served from the pool (receiver %v, sender %v)", d.m, rb.Pooled, sb.b.Pooled)
		}
		// Finish the batch so the two ends stay in lockstep.
		zero := make([]byte, d.m*d.msgLen)
		want := sb.b.X0
		if err := snd.conn.Send(sb.b.Corrections(func(j int, x0, x1 []byte) { copy(x1, x0) })); err != nil {
			t.Fatal(err)
		}
		corr, err := rcv.conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := rb.Open(corr); !bytes.Equal(got, want) || bytes.Equal(got, zero) {
			t.Fatalf("m=%d: pooled batch after the derivation delivers wrong messages", d.m)
		}
	}
	if snd.pool.Len() != 0 || rcv.pool.Len() != 0 || snd.idx != rcv.idx {
		t.Fatalf("after draining: pools %d/%d, idx %d/%d", snd.pool.Len(), rcv.pool.Len(), snd.idx, rcv.idx)
	}
	runBatch(t, s2, r2, rng, 90, 16)
	runBatch(t, snd, rcv, rng, 90, 16)
}

// reverseVictim returns an extension sender built from random base-OT
// output and GGM corrections (no public-key work) and the connection its
// peer writes on, for FuzzBaseOTMessages to feed the derived setups
// arbitrary matrices.
func reverseVictim(t testing.TB) (*Sender, transport.Conn) {
	a, b := transport.Pair()
	t.Cleanup(func() { a.Close(); b.Close() })
	seeds := make([]prf.Seed, kappa)
	for i := range seeds {
		seeds[i] = prf.RandomSeed()
	}
	return newSender(a, randomBits(kappa), seeds, make([]byte, treeBytes)), b
}
