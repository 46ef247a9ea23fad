package ot

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"secyan/internal/transport"
)

// newExtPair sets up a connected Sender/Receiver pair over an in-process
// transport, running the base-OT setup concurrently.
func newExtPair(t *testing.T) (*Sender, *Receiver, func()) {
	t.Helper()
	a, b := transport.Pair()
	sndCh := make(chan *Sender, 1)
	errCh := make(chan error, 1)
	go func() {
		snd, err := NewSender(a)
		errCh <- err
		sndCh <- snd
	}()
	rcv, err := NewReceiver(b)
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	snd := <-sndCh
	return snd, rcv, func() { a.Close(); b.Close() }
}

// fillBoth runs one matched FillRandom on both endpoints.
func fillBoth(t *testing.T, snd *Sender, rcv *Receiver, m, msgLen int) {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- snd.FillRandom(m, msgLen) }()
	if err := rcv.FillRandom(m, msgLen); err != nil {
		t.Fatalf("Receiver.FillRandom(%d,%d): %v", m, msgLen, err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("Sender.FillRandom(%d,%d): %v", m, msgLen, err)
	}
}

// runBatch executes one Send/Receive round trip and checks that every
// delivered message equals the chosen half of its pair.
func runBatch(t *testing.T, snd *Sender, rcv *Receiver, rng *rand.Rand, m, msgLen int) {
	t.Helper()
	pairs := make([][2][]byte, m)
	choices := make([]bool, m)
	for j := range pairs {
		pairs[j][0] = make([]byte, msgLen)
		pairs[j][1] = make([]byte, msgLen)
		rng.Read(pairs[j][0])
		rng.Read(pairs[j][1])
		choices[j] = rng.Intn(2) == 1
	}
	sendErr := make(chan error, 1)
	go func() { sendErr <- snd.Send(pairs) }()
	got, err := rcv.Receive(choices, msgLen)
	if err != nil {
		t.Fatalf("Receive: %v", err)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("Send: %v", err)
	}
	if len(got) != m {
		t.Fatalf("got %d messages, want %d", len(got), m)
	}
	for j := range got {
		want := pairs[j][0]
		if choices[j] {
			want = pairs[j][1]
		}
		if !bytes.Equal(got[j], want) {
			t.Fatalf("message %d: got % x, want % x", j, got[j], want)
		}
	}
}

// TestDerandomizedPaddingBoundaries mirrors the direct-path padding grid
// for the precomputed path: every (m, msgLen) combination is first filled
// offline, then served by derandomization, interleaved with direct
// batches to prove the two paths share one idx sequence without
// diverging.
func TestDerandomizedPaddingBoundaries(t *testing.T) {
	snd, rcv, done := newExtPair(t)
	defer done()

	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{0, 1, 63, 64, 65, 128} {
		for _, msgLen := range []int{1, 16, 32, 33, 256} {
			t.Run(fmt.Sprintf("m=%d/len=%d", m, msgLen), func(t *testing.T) {
				if m > 0 {
					fillBoth(t, snd, rcv, m, msgLen)
					if snd.pool.Len() != 1 || rcv.pool.Len() != 1 {
						t.Fatalf("pool lengths after fill: sender %d, receiver %d", snd.pool.Len(), rcv.pool.Len())
					}
				}
				sIdxBefore, rIdxBefore := snd.idx, rcv.idx
				runBatch(t, snd, rcv, rng, m, msgLen) // pooled
				if snd.pool.Len() != 0 || rcv.pool.Len() != 0 {
					t.Fatalf("pools not drained: sender %d, receiver %d", snd.pool.Len(), rcv.pool.Len())
				}
				// A derandomized batch must not touch idx: pads were
				// derived (and idx advanced) at fill time.
				if snd.idx != sIdxBefore || rcv.idx != rIdxBefore {
					t.Fatalf("derandomized batch advanced idx: sender %d→%d, receiver %d→%d",
						sIdxBefore, snd.idx, rIdxBefore, rcv.idx)
				}
				runBatch(t, snd, rcv, rng, m, msgLen) // direct, same dims
				if snd.idx != rcv.idx {
					t.Fatalf("idx diverged: sender %d, receiver %d", snd.idx, rcv.idx)
				}
			})
		}
	}
}

// TestFillRandomAdvancesIdx pins that FillRandom consumes idx space the
// way a direct batch of the same size would, keeping later direct
// batches' hash tweaks synchronized.
func TestFillRandomAdvancesIdx(t *testing.T) {
	snd, rcv, done := newExtPair(t)
	defer done()
	fillBoth(t, snd, rcv, 65, 16)
	wantPad := uint64((65 + 63) &^ 63)
	if snd.idx != wantPad || rcv.idx != wantPad {
		t.Fatalf("idx after fill: sender %d, receiver %d, want %d", snd.idx, rcv.idx, wantPad)
	}
}

// TestPoolExhaustionAndRefill drains a multi-batch pool past empty and
// refills it, checking every batch is correct whichever path served it.
func TestPoolExhaustionAndRefill(t *testing.T) {
	snd, rcv, done := newExtPair(t)
	defer done()
	rng := rand.New(rand.NewSource(12))

	const m, msgLen = 40, 16
	fillBoth(t, snd, rcv, m, msgLen)
	fillBoth(t, snd, rcv, m, msgLen)
	if snd.pool.Len() != 2 || rcv.pool.Len() != 2 {
		t.Fatalf("pool lengths: sender %d, receiver %d, want 2", snd.pool.Len(), rcv.pool.Len())
	}
	runBatch(t, snd, rcv, rng, m, msgLen) // hit
	runBatch(t, snd, rcv, rng, m, msgLen) // hit
	runBatch(t, snd, rcv, rng, m, msgLen) // exhausted → direct
	if snd.pool.Len() != 0 || rcv.pool.Len() != 0 {
		t.Fatalf("pools not empty after exhaustion: sender %d, receiver %d", snd.pool.Len(), rcv.pool.Len())
	}
	fillBoth(t, snd, rcv, m, msgLen) // refill
	runBatch(t, snd, rcv, rng, m, msgLen)
	if snd.pool.Len() != 0 || rcv.pool.Len() != 0 {
		t.Fatalf("pools not drained after refill: sender %d, receiver %d", snd.pool.Len(), rcv.pool.Len())
	}
}

// TestPoolMismatchFallsBack proves that a batch whose dimensions disagree
// with the pool head drops the whole pool on both endpoints and runs
// direct — the fallback contract core.Run relies on when a different
// query follows Precompute.
func TestPoolMismatchFallsBack(t *testing.T) {
	snd, rcv, done := newExtPair(t)
	defer done()
	rng := rand.New(rand.NewSource(13))

	fillBoth(t, snd, rcv, 20, 16)
	fillBoth(t, snd, rcv, 30, 16)
	runBatch(t, snd, rcv, rng, 7, 16) // head is (20,16): mismatch clears everything
	if snd.pool.Len() != 0 || rcv.pool.Len() != 0 {
		t.Fatalf("mismatch did not clear pools: sender %d, receiver %d", snd.pool.Len(), rcv.pool.Len())
	}
	runBatch(t, snd, rcv, rng, 20, 16) // would have matched the dropped head; now direct
	runBatch(t, snd, rcv, rng, 30, 16)

	// Mismatched message width clears too.
	fillBoth(t, snd, rcv, 20, 16)
	runBatch(t, snd, rcv, rng, 20, 8)
	if snd.pool.Len() != 0 || rcv.pool.Len() != 0 {
		t.Fatalf("msgLen mismatch did not clear pools: sender %d, receiver %d", snd.pool.Len(), rcv.pool.Len())
	}
}

// TestPoolClear pins the explicit Clear used by ClearPrecomputed.
func TestPoolClear(t *testing.T) {
	snd, rcv, done := newExtPair(t)
	defer done()
	rng := rand.New(rand.NewSource(14))
	fillBoth(t, snd, rcv, 9, 16)
	snd.Pool().Clear()
	rcv.Pool().Clear()
	if snd.Pool().Len() != 0 || rcv.Pool().Len() != 0 {
		t.Fatal("Clear left batches behind")
	}
	runBatch(t, snd, rcv, rng, 9, 16)
}

// runRandomBatch executes one SendRandom/ReceiveRandom pair and checks
// the random-OT contract: the receiver holds exactly the pad its choice
// bit selects of every instance, and the two pads of an instance differ.
func runRandomBatch(t *testing.T, snd *Sender, rcv *Receiver, rng *rand.Rand, m, msgLen int) {
	t.Helper()
	choices := make([]bool, m)
	for j := range choices {
		choices[j] = rng.Intn(2) == 1
	}
	type pads struct {
		r0, r1 []byte
		err    error
	}
	ch := make(chan pads, 1)
	go func() {
		r0, r1, err := snd.SendRandom(m, msgLen)
		ch <- pads{r0, r1, err}
	}()
	rc, err := rcv.ReceiveRandom(choices, msgLen)
	if err != nil {
		t.Fatalf("ReceiveRandom: %v", err)
	}
	s := <-ch
	if s.err != nil {
		t.Fatalf("SendRandom: %v", s.err)
	}
	if len(rc) != m*msgLen || len(s.r0) != m*msgLen || len(s.r1) != m*msgLen {
		t.Fatalf("pad lengths %d/%d/%d, want %d", len(rc), len(s.r0), len(s.r1), m*msgLen)
	}
	for j, c := range choices {
		want, other := s.r0[j*msgLen:(j+1)*msgLen], s.r1[j*msgLen:(j+1)*msgLen]
		if c {
			want, other = other, want
		}
		if !bytes.Equal(rc[j*msgLen:(j+1)*msgLen], want) {
			t.Fatalf("instance %d (choice %v): receiver pad is not the chosen one", j, c)
		}
		if msgLen >= 8 && bytes.Equal(want, other) {
			t.Fatalf("instance %d: both pads equal", j)
		}
	}
}

// TestRandomOTPooledMatchesDirect runs SendRandom/ReceiveRandom on both
// paths — direct (the correction matrix carries the choices) and pooled
// (one derandomization bit per instance) — interleaved with chosen-message
// batches, over the padding grid: both must satisfy the same contract,
// move exactly RandomCost resp. ⌈m/8⌉ bytes, and leave the two endpoints'
// idx counters equal.
func TestRandomOTPooledMatchesDirect(t *testing.T) {
	snd, rcv, done := newExtPair(t)
	defer done()
	rng := rand.New(rand.NewSource(15))
	moved := func() int64 { return rcv.conn.Stats().TotalBytes() }
	for _, m := range []int{0, 1, 63, 64, 65, 200} {
		for _, msgLen := range []int{4, 16, 40} {
			before := moved()
			runRandomBatch(t, snd, rcv, rng, m, msgLen) // direct
			if got := moved() - before; got != RandomCost(m) {
				t.Fatalf("direct m=%d: moved %d bytes, RandomCost predicts %d", m, got, RandomCost(m))
			}
			if m > 0 {
				fillBoth(t, snd, rcv, m, msgLen)
			}
			before = moved()
			runRandomBatch(t, snd, rcv, rng, m, msgLen) // pooled
			if got := moved() - before; got != int64((m+7)/8) {
				t.Fatalf("pooled m=%d: moved %d bytes, want %d", m, got, (m+7)/8)
			}
			if snd.pool.Len() != 0 || rcv.pool.Len() != 0 {
				t.Fatalf("pools not drained: sender %d, receiver %d", snd.pool.Len(), rcv.pool.Len())
			}
			runBatch(t, snd, rcv, rng, m, msgLen)
			if snd.idx != rcv.idx {
				t.Fatalf("idx diverged: sender %d, receiver %d", snd.idx, rcv.idx)
			}
		}
	}
}

// TestExtensionMessagesAreSizeChecked plays a misbehaving peer against
// every extension-layer decoder: a correction matrix, a ciphertext
// message or a derandomization message of the wrong length must come
// back as a *transport.SizeError naming both lengths — before anything is read
// from it or sized by it.
func TestExtensionMessagesAreSizeChecked(t *testing.T) {
	snd, rcv, done := newExtPair(t)
	defer done()
	const m, msgLen = 70, 16
	pairs, choices := makeBatch(1, m, msgLen)
	expect := func(name string, err error, want int) {
		t.Helper()
		var se *transport.SizeError
		if !errors.As(err, &se) || se.Got != 5 || se.Want != want {
			t.Fatalf("%s: %v, want a *transport.SizeError{Got: 5, Want: %d}", name, err, want)
		}
	}
	bogus := make([]byte, 5)

	// The sender's view of the receiver's messages.
	for name, call := range map[string]func() error{
		"Send":       func() error { return snd.Send(pairs) },
		"FillRandom": func() error { return snd.FillRandom(m, msgLen) },
		"SendRandom": func() error { _, _, err := snd.SendRandom(m, msgLen); return err },
	} {
		if err := rcv.conn.Send(bogus); err != nil {
			t.Fatal(err)
		}
		expect(name+" matrix", call(), int(RandomCost(m)))
	}
	for name, call := range map[string]func() error{
		"Send":       func() error { return snd.Send(pairs) },
		"SendRandom": func() error { _, _, err := snd.SendRandom(m, msgLen); return err },
	} {
		fillBoth(t, snd, rcv, m, msgLen)
		rcv.pool.Clear()
		if err := rcv.conn.Send(bogus); err != nil {
			t.Fatal(err)
		}
		expect(name+" corrections", call(), (m+7)/8)
	}

	// The receiver's view of the sender's ciphertexts, direct and pooled.
	if err := snd.conn.Send(bogus); err != nil {
		t.Fatal(err)
	}
	_, err := rcv.Receive(choices, msgLen)
	expect("Receive ciphertexts", err, 2*m*msgLen)
	if _, err := snd.conn.Recv(); err != nil { // the matrix Receive sent
		t.Fatal(err)
	}
	fillBoth(t, snd, rcv, m, msgLen)
	snd.pool.Clear()
	if err := snd.conn.Send(bogus); err != nil {
		t.Fatal(err)
	}
	_, err = rcv.Receive(choices, msgLen)
	expect("derandomized ciphertexts", err, 2*m*msgLen)
}
