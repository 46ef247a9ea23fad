package ot

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"secyan/internal/prf"
	"secyan/internal/transport"
)

// fixedBaseOTs draws κ base-OT outputs from rng, no public-key work: the
// receiver's seed pairs, and the sender's choice bits and chosen seeds.
func fixedBaseOTs(rng *rand.Rand) (pairs [][2]prf.Seed, c []bool, seeds []prf.Seed) {
	pairs, c, seeds = make([][2]prf.Seed, kappa), make([]bool, kappa), make([]prf.Seed, kappa)
	for i := range pairs {
		rng.Read(pairs[i][0][:])
		rng.Read(pairs[i][1][:])
		c[i] = rng.Intn(2) == 1
		seeds[i] = pairs[i][0]
		if c[i] {
			seeds[i] = pairs[i][1]
		}
	}
	return pairs, c, seeds
}

// checkRandomOTs runs one random-OT batch of m instances between snd and
// rcv and reports whether every receiver pad is the sender's pad of its
// choice.
func checkRandomOTs(t testing.TB, snd *Sender, rcv *Receiver, rng *rand.Rand, m int) bool {
	t.Helper()
	choices := make([]bool, m)
	for j := range choices {
		choices[j] = rng.Intn(2) == 1
	}
	type sent struct {
		r0, r1 []byte
		err    error
	}
	ch := make(chan sent, 1)
	go func() { r0, r1, err := snd.randomPads(m, 16, nil); ch <- sent{r0, r1, err} }()
	rc, err := rcv.randomPads(choices, 16)
	if err != nil {
		t.Fatalf("receiver batch: %v", err)
	}
	s := <-ch
	if s.err != nil {
		t.Fatalf("sender batch: %v", s.err)
	}
	for j, cj := range choices {
		want := s.r0
		if cj {
			want = s.r1
		}
		if !bytes.Equal(rc[j*16:(j+1)*16], want[j*16:(j+1)*16]) {
			return false
		}
	}
	return true
}

// TestSoftSpokenSetupIsSizeChecked feeds a new sender GGM corrections of
// the wrong length, short and a whole MiB long: each is a
// *transport.SizeError naming both lengths, and the setup allocates
// nothing sized by the message. Honest corrections give working OTs, and
// corrections one bit off in both sums of a level do not.
func TestSoftSpokenSetupIsSizeChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pairs, c, seeds := fixedBaseOTs(rng)
	for _, n := range []int{0, treeBytes - 1, treeBytes + 1, 1 << 20} {
		a, b := transport.Pair()
		if err := b.Send(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snd, err := recvTrees(a, c, seeds)
		runtime.ReadMemStats(&after)
		var se *transport.SizeError
		if snd != nil || !errors.As(err, &se) || se.Got != n || se.Want != treeBytes {
			t.Fatalf("%d-byte corrections: %v, want a *transport.SizeError{Got: %d, Want: %d}", n, err, n, treeBytes)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<10 {
			t.Fatalf("%d-byte corrections: the rejected setup allocated %d B", n, got)
		}
		a.Close()
		b.Close()
	}
	for _, flip := range []bool{false, true} {
		a, b := transport.Pair()
		rcv, corr := newReceiver(b, pairs)
		if flip { // one bit of one level's both sums: the sender opens one of them
			at, bit := rng.Intn(treeBytes/2/prf.SeedSize)*2*prf.SeedSize+rng.Intn(prf.SeedSize), byte(1)<<rng.Intn(8)
			corr[at] ^= bit
			corr[at+prf.SeedSize] ^= bit
		}
		snd := newSender(a, c, seeds, corr)
		if ok := checkRandomOTs(t, snd, rcv, rng, 300); ok == flip {
			t.Fatalf("corrections flipped %v: OTs correct %v", flip, ok)
		}
		a.Close()
		b.Close()
	}
}

// FuzzSoftSpokenSetup hands arbitrary bytes to a new sender as the GGM
// corrections of its direction, through recvTrees as NewSender and
// Receiver.Reverse read them. Exactly treeBytes of any content give a
// working sender: a batch against the honest receiver runs, and its OTs
// are correct when the bytes are the honest corrections. Any other
// length is a *transport.SizeError naming both lengths, rejected before
// anything is derived from it. Nothing panics.
func FuzzSoftSpokenSetup(f *testing.F) {
	rng := rand.New(rand.NewSource(45))
	pairs, c, seeds := fixedBaseOTs(rng)
	_, honest := newReceiver(nil, pairs)
	f.Add(honest)
	f.Add(honest[:len(honest)-1])
	f.Add(append(bytes.Clone(honest), 0))
	f.Add(make([]byte, treeBytes))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := transport.Pair()
		defer a.Close()
		defer b.Close()
		rcv, _ := newReceiver(b, pairs)
		if err := b.Send(bytes.Clone(data)); err != nil {
			t.Fatal(err)
		}
		snd, err := recvTrees(a, c, seeds)
		if len(data) != treeBytes {
			var se *transport.SizeError
			if snd != nil || !errors.As(err, &se) || se.Got != len(data) || se.Want != treeBytes {
				t.Fatalf("%d-byte corrections: %v, want a *transport.SizeError{Got: %d, Want: %d}", len(data), err, len(data), treeBytes)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-sized corrections: %v", err)
		}
		ok := checkRandomOTs(t, snd, rcv, rand.New(rand.NewSource(int64(len(data)))), 70)
		if bytes.Equal(data, honest) && !ok {
			t.Fatal("the honest corrections give wrong OTs")
		}
	})
}
