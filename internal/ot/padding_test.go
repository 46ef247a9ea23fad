package ot

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"secyan/internal/transport"
)

// TestExtensionPaddingBoundaries exercises the extension's padding logic
// at the 64-instance block boundaries and across derivePad's
// truncate-vs-expand branch (msgLen 16 is the last one-block width, 32
// and 33 are KDF-expanded). All batches run through one session so the test also verifies
// that the global idx counter advances by mPad — not m — per batch on
// both endpoints, keeping the hash tweaks in sync.
func TestExtensionPaddingBoundaries(t *testing.T) {
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()

	sndCh := make(chan *Sender, 1)
	errCh := make(chan error, 1)
	go func() {
		snd, err := NewSender(a)
		if err != nil {
			errCh <- err
			sndCh <- nil
			return
		}
		errCh <- nil
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

	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{0, 1, 63, 64, 65, 128} {
		for _, msgLen := range []int{1, 16, 32, 33, 256} {
			t.Run(fmt.Sprintf("m=%d/len=%d", m, msgLen), func(t *testing.T) {
				pairs := make([][2][]byte, m)
				choices := make([]bool, m)
				for j := range pairs {
					pairs[j][0] = make([]byte, msgLen)
					pairs[j][1] = make([]byte, msgLen)
					rng.Read(pairs[j][0])
					rng.Read(pairs[j][1])
					choices[j] = rng.Intn(2) == 1
				}

				sIdxBefore, rIdxBefore := snd.idx, rcv.idx
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

				mPad := uint64((m + 63) &^ 63)
				if snd.idx != sIdxBefore+mPad {
					t.Fatalf("sender idx advanced by %d, want %d", snd.idx-sIdxBefore, mPad)
				}
				if rcv.idx != rIdxBefore+mPad {
					t.Fatalf("receiver idx advanced by %d, want %d", rcv.idx-rIdxBefore, mPad)
				}
				if snd.idx != rcv.idx {
					t.Fatalf("idx diverged: sender %d, receiver %d", snd.idx, rcv.idx)
				}
			})
		}
	}
}

// TestExtensionUnequalMessageLengthRejected pins the error path for
// ragged message pairs.
func TestExtensionUnequalMessageLengthRejected(t *testing.T) {
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()

	sndCh := make(chan *Sender, 1)
	go func() {
		snd, err := NewSender(a)
		if err != nil {
			t.Error(err)
		}
		sndCh <- snd
	}()
	if _, err := NewReceiver(b); err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	snd := <-sndCh
	if snd == nil {
		t.Fatal("sender setup failed")
	}
	pairs := [][2][]byte{{make([]byte, 4), make([]byte, 5)}}
	if err := snd.Send(pairs); err == nil {
		t.Fatal("Send accepted unequal message lengths")
	}
}
