package ot

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"secyan/internal/transport"
)

// productPair builds an extension pair over an in-process transport from
// fixed base OTs, with no public-key work.
func productPair(t testing.TB) (*Sender, *Receiver, func()) {
	t.Helper()
	a, b := transport.Pair()
	pairs, c, seeds := fixedBaseOTs(rand.New(rand.NewSource(54)))
	rcv, corr := newReceiver(b, pairs)
	return newSender(a, c, seeds, corr), rcv, func() { a.Close(); b.Close() }
}

// randomWords draws terms vectors of n words.
func randomWords(rng *rand.Rand, terms, n int) [][]uint64 {
	w := make([][]uint64, terms)
	for t := range w {
		w[t] = make([]uint64, n)
		for i := range w[t] {
			w[t][i] = rng.Uint64()
		}
	}
	return w
}

// runProducts runs one product batch, pooled after a fill of its shape
// when pooled, and returns both parties' shares and the bytes and
// messages the batch itself moved.
func runProducts(t *testing.T, snd *Sender, rcv *Receiver, ell int, a, b [][]uint64, pooled bool) (ss, rs []uint64, bytes_, msgs int64) {
	t.Helper()
	if m, msgLen := ProductBatch(len(a[0]), ell, len(a)); pooled && m > 0 {
		fillBoth(t, snd, rcv, m, msgLen)
	}
	before := rcv.conn.Stats()
	type res struct {
		s   []uint64
		err error
	}
	ch := make(chan res, 1)
	go func() { s, err := snd.SendProducts(ell, a...); ch <- res{s, err} }()
	rs, err := rcv.ReceiveProducts(ell, b...)
	if err != nil {
		t.Fatalf("ReceiveProducts: %v", err)
	}
	s := <-ch
	if s.err != nil {
		t.Fatalf("SendProducts: %v", s.err)
	}
	after := rcv.conn.Stats()
	return s.s, rs, after.TotalBytes() - before.TotalBytes(),
		after.MessagesSent + after.MessagesRecv - before.MessagesSent - before.MessagesRecv
}

// TestProductsMatchPlain runs product batches of random words, direct
// and pooled, of one and two terms, at widths 1, 7, 32 and 64, at sizes
// that span several sender tiles (whose shared products and reply bytes
// are merged after the tiles run concurrently). The receiver's and the
// sender's shares add up to Σ_t a_t·b_t mod 2^ℓ, and both ends' OT
// counters stay equal. Then the sender's shares of all-zero products
// are uniform in each of their low bits.
func TestProductsMatchPlain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	snd, rcv, done := productPair(t)
	defer done()
	rng := rand.New(rand.NewSource(16))
	for _, ell := range []int{1, 7, 32, 64} {
		for _, pooled := range []bool{false, true} {
			for _, terms := range []int{1, 2} {
				for _, n := range []int{0, 1, 5, 157} {
					t.Run(fmt.Sprintf("ell=%d/pooled=%v/terms=%d/n=%d", ell, pooled, terms, n), func(t *testing.T) {
						a, b := randomWords(rng, terms, n), randomWords(rng, terms, n)
						ss, rs, _, _ := runProducts(t, snd, rcv, ell, a, b, pooled)
						if len(ss) != n || len(rs) != n {
							t.Fatalf("%d and %d shares, want %d", len(ss), len(rs), n)
						}
						mask := lowBits(ell)
						for i := range ss {
							var want uint64
							for t := range a {
								want += a[t][i] * b[t][i]
							}
							if got := (ss[i] + rs[i]) & mask; got != want&mask || ss[i]&^mask != 0 || rs[i]&^mask != 0 {
								t.Fatalf("product %d: shares %#x + %#x, want %#x mod 2^%d", i, ss[i], rs[i], want&mask, ell)
							}
						}
						if snd.idx != rcv.idx || snd.pool.Len() != 0 || rcv.pool.Len() != 0 {
							t.Fatalf("ends diverged: idx %d/%d, pools %d/%d", snd.idx, rcv.idx, snd.pool.Len(), rcv.pool.Len())
						}
					})
				}
			}
		}
	}
	const n = 4000
	for _, pooled := range []bool{false, true} {
		zero := [][]uint64{make([]uint64, n), make([]uint64, n)}
		ss, _, _, _ := runProducts(t, snd, rcv, 32, zero, zero, pooled)
		for bit := 0; bit < 8; bit++ {
			ones := 0
			for _, s := range ss {
				ones += int(s >> bit & 1)
			}
			if ones < n*45/100 || ones > n*55/100 {
				t.Fatalf("pooled=%v: bit %d of the sender's shares is set %d times in %d", pooled, bit, ones, n)
			}
		}
	}
}

// TestProductCost pins the closed forms to the wire on both paths: a
// direct batch is ProductCost bytes, a fill of ProductBatch's shape
// ExtOfflineCost and the pooled batch on it ProductOnlineCost, each one
// message each way. A reply one byte short or long is a
// *transport.SizeError naming both lengths.
func TestProductCost(t *testing.T) {
	snd, rcv, done := productPair(t)
	defer done()
	rng := rand.New(rand.NewSource(17))
	for _, c := range []struct{ n, ell, terms int }{{1, 1, 1}, {3, 7, 2}, {180, 32, 1}, {180, 32, 2}, {33, 64, 2}} {
		m, msgLen := ProductBatch(c.n, c.ell, c.terms)
		a, b := randomWords(rng, c.terms, c.n), randomWords(rng, c.terms, c.n)
		_, _, got, msgs := runProducts(t, snd, rcv, c.ell, a, b, false)
		if want := ProductCost(c.n, c.ell, c.terms); got != want || msgs != 2 {
			t.Fatalf("%+v direct: %d bytes in %d messages, want %d in 2", c, got, msgs, want)
		}
		before := rcv.conn.Stats().TotalBytes()
		fillBoth(t, snd, rcv, m, msgLen)
		if got := rcv.conn.Stats().TotalBytes() - before; got != ExtOfflineCost(m) {
			t.Fatalf("%+v fill: %d bytes, want %d", c, got, ExtOfflineCost(m))
		}
		rcv.pool.Clear()
		snd.pool.Clear()
		_, _, got, msgs = runProducts(t, snd, rcv, c.ell, a, b, true)
		if want := ProductOnlineCost(c.n, c.ell, c.terms); got != want || msgs != 2 {
			t.Fatalf("%+v pooled: %d bytes in %d messages, want %d in 2", c, got, msgs, want)
		}
	}
	// At ℓ = 32 a term is 528 bits of reply instead of 32·32.
	if got := ProductCost(180, 32, 2); got != 69840 {
		t.Fatalf("ProductCost(180, 32, 2) = %d, want 69 840", got)
	}
	want := int(productReplyBytes(5, 32, 2))
	for _, l := range []int{want - 1, want + 1} {
		_, err := hostileReply(t, snd, rcv, 32, randomWords(rng, 2, 5), make([]byte, l))
		var se *transport.SizeError
		if !errors.As(err, &se) || se.Got != l || se.Want != want {
			t.Fatalf("a %d-byte reply: %v, want a *transport.SizeError{Got: %d, Want: %d}", l, err, l, want)
		}
	}
}

// hostileReply runs ReceiveProducts against a peer that reads the
// receiver's message and answers with reply.
func hostileReply(t testing.TB, snd *Sender, rcv *Receiver, ell int, b [][]uint64, reply []byte) ([]uint64, error) {
	t.Helper()
	errCh := make(chan error, 1)
	go func() {
		if _, err := snd.conn.Recv(); err != nil {
			errCh <- err
			return
		}
		errCh <- snd.conn.Send(reply)
	}()
	sums, err := rcv.ReceiveProducts(ell, b...)
	if perr := <-errCh; perr != nil {
		t.Fatalf("hostile peer: %v", perr)
	}
	return sums, err
}

// FuzzProductReply hands a product batch's receiver, direct or pooled,
// a hostile sender's reply of any length and content. One of exactly the
// batch's length gives n shares below 2^ℓ; any other length is a
// *transport.SizeError naming both lengths. Nothing panics.
func FuzzProductReply(f *testing.F) {
	f.Add(uint8(32), uint8(3), false, false, []byte{})
	f.Add(uint8(7), uint8(5), true, true, make([]byte, productReplyBytes(5, 7, 2)))
	f.Add(uint8(64), uint8(1), false, true, bytes.Repeat([]byte{0xff}, int(productReplyBytes(1, 64, 1))+1))
	f.Add(uint8(1), uint8(9), true, false, make([]byte, productReplyBytes(9, 1, 2)-1))
	f.Fuzz(func(t *testing.T, ellRaw, nRaw uint8, two, pooled bool, reply []byte) {
		ell, n, terms := int(ellRaw)%64+1, int(nRaw)%40+1, 1
		if two {
			terms = 2
		}
		snd, rcv, done := productPair(t)
		defer done()
		if pooled {
			m, msgLen := ProductBatch(n, ell, terms)
			fillBoth(t, snd, rcv, m, msgLen)
		}
		b := randomWords(rand.New(rand.NewSource(int64(n))), terms, n)
		sums, err := hostileReply(t, snd, rcv, ell, b, bytes.Clone(reply))
		want := int(productReplyBytes(n, ell, terms))
		if len(reply) != want {
			var se *transport.SizeError
			if !errors.As(err, &se) || se.Got != len(reply) || se.Want != want {
				t.Fatalf("a %d-byte reply: %v, want a *transport.SizeError{Got: %d, Want: %d}", len(reply), err, len(reply), want)
			}
			return
		}
		if err != nil || len(sums) != n {
			t.Fatalf("a well-sized reply: %d shares, %v", len(sums), err)
		}
		for _, s := range sums {
			if s&^lowBits(ell) != 0 {
				t.Fatalf("share %#x wider than %d bits", s, ell)
			}
		}
	})
}
