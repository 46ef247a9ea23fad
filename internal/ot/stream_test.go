package ot

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"secyan/internal/prf"
)

// streamPads runs one direct random-OT batch on the choices, msgLen-byte
// pads, and returns the sender's pads of choice 0 and the receiver's.
func streamPads(t *testing.T, snd *Sender, rcv *Receiver, choices []bool, msgLen int) (r0, rc []byte) {
	t.Helper()
	type res struct {
		r0  []byte
		err error
	}
	ch := make(chan res, 1)
	go func() { r0, _, err := snd.randomPads(len(choices), msgLen); ch <- res{r0, err} }()
	rc, err := rcv.randomPads(choices, msgLen)
	if err != nil {
		t.Fatalf("receiver: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("sender: %v", r.err)
	}
	return r.r0, rc
}

// TestSessionStreamsNeverShareTweaks: the streams of one session share
// its root's keys — Δ, the leaf seeds, KKRT's s — so what keeps their OTs
// apart is a keystream window and a stream word per stream. Two streams
// that run the same batches on the same choices must expand disjoint
// windows (no row repeats), and two streams forced into the same window
// must still hash every row under another tweak: their OT pads, both
// the one-block and the KDF-expanded ones, and their KKRT outputs all
// differ. A stream's batch past its window is a *WindowError on both
// ends. (The gate and payload hashes: gc's
// TestSessionStreamsGarbleUnderDisjointTweaks.)
func TestSessionStreamsNeverShareTweaks(t *testing.T) {
	snd, rcv, done := setupExtension(t)
	defer done()
	ks, kr := kkrtPair(t, snd, rcv)
	a, b := snd.conn, rcv.conn
	rng := rand.New(rand.NewSource(53))
	const m = 200
	choices := randomChoices(rng, m)

	// Disjoint windows: the same Δ-OT batch on streams 1 and 2.
	rows := map[string]uint32{}
	for _, id := range []uint32{1, 2} {
		s, r := snd.Stream(a, id), rcv.Stream(b, id)
		_, t1, _, _ := openDelta(t, s, r, choices)
		for j := 0; j < m; j++ {
			row := string(t1[16*j : 16*j+16])
			if other, ok := rows[row]; ok {
				t.Fatalf("stream %d repeats row %d of stream %d: their keystream windows overlap", id, j, other)
			}
			rows[row] = id
		}
		if s.off <= windowStart(id) || s.off-windowStart(id) > windowBytes || r.off != s.off {
			t.Fatalf("stream %d expanded up to offset %#x, outside its window from %#x", id, s.off, windowStart(id))
		}
	}

	// One window, two words: every pad and KKRT output must differ.
	codes := make([]byte, m*KKRTCodeBytes)
	rng.Read(codes)
	var pads [2][2][]byte // [stream][msgLen 16 or 40]
	var kkrt [2][]byte
	for i, id := range []uint32{3, 4} {
		s, r := snd.Stream(a, id), rcv.Stream(b, id)
		s.off, r.off = windowStart(3), windowStart(3)
		for w, msgLen := range []int{16, 40} {
			r0, rc := streamPads(t, s, r, choices, msgLen)
			for j, c := range choices {
				if !c && !bytes.Equal(r0[j*msgLen:][:msgLen], rc[j*msgLen:][:msgLen]) {
					t.Fatalf("stream %d: OT %d is broken", id, j)
				}
			}
			pads[i][w] = rc
		}
		kS, kR := ks.Stream(b, id), kr.Stream(a, id)
		kS.off, kR.off = windowStart(3), windowStart(3)
		kkrt[i], _ = kkrtBatch(t, kS, kR, codes, 16)
	}
	for w, msgLen := range []int{16, 40} {
		for j := 0; j < m; j++ {
			if bytes.Equal(pads[0][w][j*msgLen:][:msgLen], pads[1][w][j*msgLen:][:msgLen]) {
				t.Fatalf("%d-byte pad of OT %d repeats across streams that share a window: the stream word is not in the tweak", msgLen, j)
			}
		}
	}
	for j := 0; j < m; j++ {
		if bytes.Equal(kkrt[0][16*j:16*j+16], kkrt[1][16*j:16*j+16]) {
			t.Fatalf("KKRT output %d repeats across streams that share a window: the stream word is not in its hash", j)
		}
	}

	// The end of a window: both ends refuse the batch, typed, and stay
	// where they were.
	s, r := snd.Stream(a, 5), rcv.Stream(b, 5)
	s.off, r.off = windowStart(6)-16, windowStart(6)-16
	if _, err := s.BeginDelta(129); !errors.As(err, new(*WindowError)) {
		t.Fatalf("sender past its window: %v", err)
	}
	var we *WindowError
	if _, _, err := r.ReceiveDelta(choices[:129]); !errors.As(err, &we) || we.Stream != 5 || we.Left != 16 {
		t.Fatalf("receiver past its window: %v", err)
	}
	if s.off != windowStart(6)-16 || r.off != s.off {
		t.Fatalf("a refused batch moved the stream to %#x/%#x", s.off, r.off)
	}
	openDelta(t, s, r, choices[:64]) // the window's last 16 bytes
	kS, kR := ks.Stream(b, math.MaxUint32), kr.Stream(a, math.MaxUint32)
	kS.off, kR.off = ^uint64(7), ^uint64(7) // the last window ends at 2^64
	if _, err := kR.Receive(codes[:65*KKRTCodeBytes], 16); !errors.As(err, new(*WindowError)) {
		t.Fatalf("KKRT receiver past the last window: %v", err)
	}
	if _, err := kS.Send(65); !errors.As(err, new(*WindowError)) {
		t.Fatalf("KKRT sender past the last window: %v", err)
	}
	if w := (&Sender{stream: 7}).Word(); w != prf.Word(7) {
		t.Fatalf("stream 7 hashes under word %d", w)
	}
}
