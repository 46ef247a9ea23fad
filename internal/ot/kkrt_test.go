package ot

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"secyan/internal/obs"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// kkrtPair derives a KKRT extension from an IKNP pair: rcv's end becomes
// the KKRT sender, snd's end the KKRT receiver. The receiver's setup is
// started first, so it waits for the matrix the sender's setup sends.
func kkrtPair(t *testing.T, snd *Sender, rcv *Receiver) (*KKRTSender, *KKRTReceiver) {
	t.Helper()
	type res struct {
		r   *KKRTReceiver
		err error
	}
	ch := make(chan res, 1)
	go func() { r, err := NewKKRTReceiver(snd); ch <- res{r, err} }()
	ks, err := NewKKRTSender(rcv)
	if err != nil {
		t.Fatalf("NewKKRTSender: %v", err)
	}
	rr := <-ch
	if rr.err != nil {
		t.Fatalf("NewKKRTReceiver: %v", rr.err)
	}
	return ks, rr.r
}

// kkrtFromSeeds builds a KKRT pair over a fresh pipe straight from
// random base-OT output drawn from rng — no public-key work and no IKNP
// batch — with s the sender's secret bits packed.
func kkrtFromSeeds(t testing.TB, rng *rand.Rand) (*KKRTSender, *KKRTReceiver) {
	a, b := transport.Pair()
	t.Cleanup(func() { a.Close(); b.Close() })
	ks := &KKRTSender{conn: a, seeds: make([]prf.Seed, KKRTWidth)}
	kr := &KKRTReceiver{conn: b, leaves: make([]prf.Seed, 2*KKRTWidth)}
	for i := 0; i < KKRTWidth; i++ {
		k0, k1 := &kr.leaves[2*i+1], &kr.leaves[2*i] // leaf y is k_i^{1−y}
		rng.Read(k0[:])
		rng.Read(k1[:])
		c := rng.Intn(2)
		ks.s[i/8] |= byte(c) << (i % 8)
		ks.seeds[i] = kr.leaves[2*i+1-c]
	}
	return ks, kr
}

// kkrtBatch runs one batch of len(codes)/KKRTCodeBytes instances,
// outLen-byte outputs, and returns the receiver's outputs and the
// sender's keys.
func kkrtBatch(t testing.TB, ks *KKRTSender, kr *KKRTReceiver, codes []byte, outLen int) ([]byte, *KKRTKeys) {
	t.Helper()
	type res struct {
		k   *KKRTKeys
		err error
	}
	m := len(codes) / KKRTCodeBytes
	ch := make(chan res, 1)
	go func() { k, err := ks.Send(m); ch <- res{k, err} }()
	out, err := kr.Receive(codes, outLen)
	if err != nil {
		t.Fatalf("Receive(m=%d): %v", m, err)
	}
	sr := <-ch
	if sr.err != nil {
		t.Fatalf("Send(m=%d): %v", m, sr.err)
	}
	return out, sr.k
}

// runKKRT runs one batch on m random code words and checks the OPRF
// contract: the sender's Eval at instance j's own code word is the
// receiver's output, at a fresh random code word (≈ KKRTWidth/2 bits
// away, as the PSI's pseudorandom code keeps any two) it is not, and the
// batch
// moves exactly KKRTCost bytes in one message.
func runKKRT(t *testing.T, ks *KKRTSender, kr *KKRTReceiver, rng *rand.Rand, m int) {
	t.Helper()
	codes := make([]byte, m*KKRTCodeBytes)
	rng.Read(codes)
	before := kr.conn.Stats()
	out, keys := kkrtBatch(t, ks, kr, codes, 16)
	after := kr.conn.Stats()
	if got := after.TotalBytes() - before.TotalBytes(); got != KKRTCost(m) || got != int64(KKRTCodeBytes)*int64((m+7)&^7) {
		t.Fatalf("m=%d: batch moved %d bytes, KKRTCost predicts %d", m, got, KKRTCost(m))
	}
	if m > 0 && after.MessagesSent-before.MessagesSent != 1 {
		t.Fatalf("m=%d: receiver sent %d messages, want 1", m, after.MessagesSent-before.MessagesSent)
	}
	var c, other [KKRTCodeBytes]byte
	var got [16]byte
	for j := 0; j < m; j++ {
		copy(c[:], codes[j*KKRTCodeBytes:])
		keys.Eval(got[:], j, &c)
		if !bytes.Equal(got[:], out[j*16:(j+1)*16]) {
			t.Fatalf("m=%d instance %d: F_j(x_j) differs between the parties", m, j)
		}
		rng.Read(other[:])
		if keys.Eval(got[:], j, &other); bytes.Equal(got[:], out[j*16:(j+1)*16]) {
			t.Fatalf("m=%d instance %d: F_j at another code word matches the receiver's output", m, j)
		}
		if j > 0 {
			if keys.Eval(got[:], j-1, &c); bytes.Equal(got[:], out[j*16:(j+1)*16]) {
				t.Fatalf("m=%d instance %d: F_{j-1}(x_j) equals F_j(x_j)", m, j)
			}
		}
	}
}

// TestKKRTDerivesWorkingOPRF derives a KKRT extension from an IKNP pair,
// both fresh and after IKNP batches, and runs batches across the byte
// and word padding boundaries. The setup moves exactly KKRTSetupCost
// (2 048 B) in one message from the IKNP receiver's end and runs no
// base-OT kernel, every batch satisfies the OPRF contract, and the IKNP
// pair keeps working afterwards.
func TestKKRTDerivesWorkingOPRF(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	for _, warm := range []bool{false, true} {
		snd, rcv, done := newExtPair(t)
		rng := rand.New(rand.NewSource(41))
		if warm {
			runBatch(t, snd, rcv, rng, 100, 16)
		}
		before := rcv.conn.Stats()
		base0, _ := obs.KernelTotal("ot.base.")
		ks, kr := kkrtPair(t, snd, rcv)
		after := rcv.conn.Stats()
		if got := after.TotalBytes() - before.TotalBytes(); got != KKRTSetupCost() || got != 2048 {
			t.Fatalf("KKRT setup moved %d bytes, KKRTSetupCost predicts %d", got, KKRTSetupCost())
		}
		if sent, recvd := after.MessagesSent-before.MessagesSent, after.MessagesRecv-before.MessagesRecv; sent != 1 || recvd != 0 {
			t.Fatalf("KKRT setup: the IKNP receiver sent %d and received %d messages, want 1 and 0", sent, recvd)
		}
		if base, _ := obs.KernelTotal("ot.base."); base != base0 {
			t.Fatalf("KKRT setup ran %d base-OT instances", base-base0)
		}
		for _, m := range []int{0, 1, 7, 8, 9, 63, 64, 65, 300, 1024, 1025, 3000} {
			runKKRT(t, ks, kr, rng, m)
		}
		if ks.idx != kr.idx || ks.off != kr.off {
			t.Fatalf("counters diverged: sender idx %d off %d, receiver idx %d off %d", ks.idx, ks.off, kr.idx, kr.off)
		}
		runBatch(t, snd, rcv, rng, 65, 24)
		done()
	}
}

// TestKKRTSetupLeavesPoolsAligned fills the IKNP pool with a batch of
// exactly the KKRT setup's dimensions (KKRTWidth OTs of one seed each),
// sets KKRT up, then drains: the setup ran direct, so the pooled batch is
// still there for the batch it was filled for, and both ends agree.
func TestKKRTSetupLeavesPoolsAligned(t *testing.T) {
	snd, rcv, done := newExtPair(t)
	defer done()
	rng := rand.New(rand.NewSource(42))
	fillBoth(t, snd, rcv, KKRTWidth, prf.SeedSize)
	before := rcv.conn.Stats().TotalBytes()
	ks, kr := kkrtPair(t, snd, rcv)
	if got := rcv.conn.Stats().TotalBytes() - before; got != KKRTSetupCost() {
		t.Fatalf("KKRT setup moved %d bytes next to a matching pool batch, KKRTSetupCost predicts %d", got, KKRTSetupCost())
	}
	if snd.pool.Len() != 1 || rcv.pool.Len() != 1 {
		t.Fatalf("pools after the KKRT setup: sender %d, receiver %d batches, want 1 each", snd.pool.Len(), rcv.pool.Len())
	}
	before = rcv.conn.Stats().TotalBytes()
	runRandomBatch(t, snd, rcv, rng, KKRTWidth, prf.SeedSize)
	if got := rcv.conn.Stats().TotalBytes() - before; got != RandomOnlineCost(KKRTWidth) {
		t.Fatalf("batch after the KKRT setup moved %d bytes, want the pooled %d", got, RandomOnlineCost(KKRTWidth))
	}
	if snd.pool.Len() != 0 || rcv.pool.Len() != 0 || snd.idx != rcv.idx {
		t.Fatalf("after draining: pools %d/%d, idx %d/%d", snd.pool.Len(), rcv.pool.Len(), snd.idx, rcv.idx)
	}
	runKKRT(t, ks, kr, rng, 70)
	runBatch(t, snd, rcv, rng, 90, 16)
}

// TestKKRTMatrixIsSizeChecked plays a misbehaving receiver against the
// KKRT sender: a matrix of the wrong length is a *transport.SizeError
// naming both lengths, before anything is read from it.
func TestKKRTMatrixIsSizeChecked(t *testing.T) {
	snd, rcv, done := newExtPair(t)
	defer done()
	ks, _ := kkrtPair(t, snd, rcv)
	if err := snd.conn.Send(make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	_, err := ks.Send(70)
	var se *transport.SizeError
	if !errors.As(err, &se) || se.Got != 5 || se.Want != int(KKRTCost(70)) {
		t.Fatalf("KKRT matrix: %v, want a *transport.SizeError{Got: 5, Want: %d}", err, KKRTCost(70))
	}
}

// FuzzKKRT runs a KKRT batch of m ≤ 2 048 instances on fuzzer-chosen
// code words (code, repeated) and checks the OPRF contract: the sender's
// Eval at each programmed code word is the receiver's output. Then the
// fuzzer's matrix is a hostile receiver's correction matrix for a batch
// of m: one of exactly KKRTCost(m) bytes is accepted, any other length
// is a *transport.SizeError naming both lengths that leaves the sender's
// stream offset and instance counter untouched — it is rejected before
// anything is derived or allocated from it — and nothing panics.
func FuzzKKRT(f *testing.F) {
	f.Add(uint16(1), []byte{0xff}, []byte{})
	f.Add(uint16(65), []byte{1, 2, 3}, make([]byte, KKRTCost(65)-1))
	f.Add(uint16(1025), []byte{}, make([]byte, KKRTCost(1025)+1))
	f.Add(uint16(8), []byte{0x80}, make([]byte, KKRTCost(8)))
	f.Add(uint16(2048), make([]byte, KKRTCodeBytes+1), make([]byte, KKRTCost(9)))
	f.Fuzz(func(t *testing.T, mRaw uint16, code, matrix []byte) {
		m := int(mRaw) % 2049
		rng := rand.New(rand.NewSource(int64(m)))
		ks, kr := kkrtFromSeeds(t, rng)
		codes := make([]byte, m*KKRTCodeBytes)
		for i := range codes {
			if len(code) > 0 {
				codes[i] = code[i%len(code)]
			}
		}
		out, keys := kkrtBatch(t, ks, kr, codes, 16)
		var c [KKRTCodeBytes]byte
		var got [16]byte
		for j := 0; j < m; j++ {
			copy(c[:], codes[j*KKRTCodeBytes:])
			if keys.Eval(got[:], j, &c); !bytes.Equal(got[:], out[j*16:(j+1)*16]) {
				t.Fatalf("m=%d instance %d: Eval at the programmed code word differs from the receiver's output", m, j)
			}
		}
		if m == 0 {
			return
		}
		if err := kr.conn.Send(bytes.Clone(matrix)); err != nil {
			t.Fatal(err)
		}
		off, idx := ks.off, ks.idx
		keys, err := ks.Send(m)
		var se *transport.SizeError
		switch {
		case len(matrix) == int(KKRTCost(m)):
			if err != nil || len(keys.q) != m*KKRTCodeBytes {
				t.Fatalf("m=%d: a well-sized matrix: %v", m, err)
			}
		case !errors.As(err, &se) || se.Got != len(matrix) || se.Want != int(KKRTCost(m)):
			t.Fatalf("m=%d: a %d-byte matrix: %v, want a *transport.SizeError{Got: %d, Want: %d}", m, len(matrix), err, len(matrix), KKRTCost(m))
		case ks.off != off || ks.idx != idx:
			t.Fatalf("m=%d: a rejected matrix moved the sender to offset %d, instance %d (from %d, %d)", m, ks.off, ks.idx, off, idx)
		}
	})
}
