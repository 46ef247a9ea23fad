package ot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// correlations are the two correlation shapes the consumers use: XOR with
// a batch-wide Δ (garbled-circuit labels) and per-instance addition modulo
// 2^ℓ on each 8-byte lane (OEP switches, Gilboa products), with a
// function to check a delivered x1 against x0.
func correlations(rng *rand.Rand, m, msgLen int) map[string]struct {
	f     Correlation
	check func(j int, x0, x1 []byte) bool
} {
	delta := make([]byte, msgLen)
	rng.Read(delta)
	offs := make([]uint64, m)
	for j := range offs {
		offs[j] = rng.Uint64()
	}
	addLanes := func(dst, x []byte, a uint64) {
		for lo := 0; lo < len(x); lo += 8 {
			var w [8]byte
			n := copy(w[:], x[lo:])
			binary.LittleEndian.PutUint64(w[:], binary.LittleEndian.Uint64(w[:])+a)
			copy(dst[lo:lo+n], w[:n])
		}
	}
	return map[string]struct {
		f     Correlation
		check func(j int, x0, x1 []byte) bool
	}{
		"xor": {
			f: func(j int, x0, x1 []byte) {
				for k := range x1 {
					x1[k] = x0[k] ^ delta[k]
				}
			},
			check: func(j int, x0, x1 []byte) bool {
				for k := range x1 {
					if x1[k] != x0[k]^delta[k] {
						return false
					}
				}
				return true
			},
		},
		"add": {
			f: func(j int, x0, x1 []byte) { addLanes(x1, x0, offs[j]) },
			check: func(j int, x0, x1 []byte) bool {
				want := make([]byte, len(x0))
				addLanes(want, x0, offs[j])
				return bytes.Equal(want, x1)
			},
		},
	}
}

// TestCorrelatedOT pins the correlated-OT contract on both paths over the
// padding grid: a receiver choosing 0 holds exactly the sender's x0, one
// choosing 1 holds f(j, x0); a direct batch moves CorrelatedCost bytes
// and a pooled one CorrelatedOnlineCost online after an ExtOfflineCost
// fill; and the batch leaves both endpoints' idx counters equal, so the
// chosen-message and random batches that follow still work.
func TestCorrelatedOT(t *testing.T) {
	snd, rcv, done := newExtPair(t)
	defer done()
	rng := rand.New(rand.NewSource(21))
	moved := func() int64 { return rcv.conn.Stats().TotalBytes() }
	for _, pooled := range []bool{false, true} {
		for _, m := range []int{1, 63, 64, 65, 4096} {
			for _, msgLen := range []int{4, 8, 16} {
				for name, corr := range correlations(rng, m, msgLen) {
					t.Run(fmt.Sprintf("pooled=%v/m=%d/len=%d/%s", pooled, m, msgLen, name), func(t *testing.T) {
						want := CorrelatedCost(m, msgLen)
						if pooled {
							before := moved()
							fillBoth(t, snd, rcv, m, msgLen)
							if got := moved() - before; got != ExtOfflineCost(m) {
								t.Fatalf("fill moved %d bytes, ExtOfflineCost predicts %d", got, ExtOfflineCost(m))
							}
							want = CorrelatedOnlineCost(m, msgLen)
						}
						choices := make([]bool, m)
						for j := range choices {
							choices[j] = rng.Intn(2) == 1
						}
						type res struct {
							x0  []byte
							err error
						}
						ch := make(chan res, 1)
						before := moved()
						go func() {
							x0, err := snd.SendCorrelated(m, msgLen, corr.f)
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
						if n := moved() - before; n != want {
							t.Fatalf("batch moved %d bytes, closed form predicts %d", n, want)
						}
						if len(got) != m*msgLen || len(s.x0) != m*msgLen {
							t.Fatalf("lengths %d/%d, want %d", len(got), len(s.x0), m*msgLen)
						}
						for j, c := range choices {
							x0, x := s.x0[j*msgLen:(j+1)*msgLen], got[j*msgLen:(j+1)*msgLen]
							if !c && !bytes.Equal(x, x0) {
								t.Fatalf("instance %d chose 0 but does not hold the sender's x0", j)
							}
							if c && !corr.check(j, x0, x) {
								t.Fatalf("instance %d chose 1 but does not hold f(x0)", j)
							}
						}
						if snd.pool.Len() != 0 || rcv.pool.Len() != 0 {
							t.Fatalf("pools not drained: sender %d, receiver %d", snd.pool.Len(), rcv.pool.Len())
						}
						if snd.idx != rcv.idx {
							t.Fatalf("idx diverged: sender %d, receiver %d", snd.idx, rcv.idx)
						}
						runBatch(t, snd, rcv, rng, 65, msgLen)
						runRandomBatch(t, snd, rcv, rng, 7, msgLen)
					})
				}
			}
		}
	}
}

// TestChosenOTIsCorrelatedPlusWord pins the chosen-message closed forms
// on both paths: 36 B per 16-byte OT direct (extCost: 4 B of correction
// message and two words), the bits plus two
// words pooled (ExtOnlineCost).
func TestChosenOTIsCorrelatedPlusWord(t *testing.T) {
	snd, rcv, done := newExtPair(t)
	defer done()
	rng := rand.New(rand.NewSource(22))
	moved := func() int64 { return rcv.conn.Stats().TotalBytes() }
	const m, msgLen = 640, 16
	before := moved()
	runBatch(t, snd, rcv, rng, m, msgLen)
	if got := moved() - before; got != extCost(m, msgLen) || got != 36*m {
		t.Fatalf("direct chosen batch moved %d bytes, extCost predicts %d", got, extCost(m, msgLen))
	}
	fillBoth(t, snd, rcv, m, msgLen)
	before = moved()
	runBatch(t, snd, rcv, rng, m, msgLen)
	if got := moved() - before; got != ExtOnlineCost(m, msgLen) {
		t.Fatalf("pooled chosen batch moved %d bytes, ExtOnlineCost predicts %d", got, ExtOnlineCost(m, msgLen))
	}
}
