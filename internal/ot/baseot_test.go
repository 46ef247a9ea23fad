package ot

import (
	"bytes"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"runtime"
	"testing"

	"secyan/internal/prf"
	"secyan/internal/transport"
)

// runBaseOT runs one BaseSend/BaseRecv batch over the given connected
// endpoints and returns both parties' outputs.
func runBaseOT(t testing.TB, a, b transport.Conn, choices []bool) ([][2]prf.Seed, []prf.Seed) {
	t.Helper()
	type sres struct {
		pairs [][2]prf.Seed
		err   error
	}
	ch := make(chan sres, 1)
	go func() {
		pairs, err := BaseSend(a, len(choices))
		ch <- sres{pairs, err}
	}()
	got, err := BaseRecv(b, choices)
	if err != nil {
		t.Fatalf("BaseRecv: %v", err)
	}
	sr := <-ch
	if sr.err != nil {
		t.Fatalf("BaseSend: %v", sr.err)
	}
	return sr.pairs, got
}

// checkBaseOT asserts the random-OT contract: the receiver holds the
// chosen seed of every pair and not the other, and no seed repeats.
func checkBaseOT(t *testing.T, pairs [][2]prf.Seed, got []prf.Seed, choices []bool) {
	t.Helper()
	if len(pairs) != len(choices) || len(got) != len(choices) {
		t.Fatalf("got %d pairs and %d seeds for %d choices", len(pairs), len(got), len(choices))
	}
	seen := make(map[prf.Seed]bool, 2*len(pairs))
	for i, c := range choices {
		want, other := pairs[i][0], pairs[i][1]
		if c {
			want, other = other, want
		}
		if got[i] != want {
			t.Fatalf("OT %d: receiver's seed is not the chosen one", i)
		}
		if got[i] == other {
			t.Fatalf("OT %d: received both seeds?!", i)
		}
		for _, s := range pairs[i] {
			if seen[s] {
				t.Fatalf("OT %d: sender seed repeats", i)
			}
			seen[s] = true
		}
	}
}

// TestPutCompressedMatchesMarshal pins the hand encoding of base-OT
// points to SEC 1's, as crypto/elliptic writes it: both parities of y,
// and x-coordinates with leading zero bytes.
func TestPutCompressedMatchesMarshal(t *testing.T) {
	var odd, even, short bool
	for i := 0; i < 200 || !(odd && even && short); i++ {
		_, x, y, err := elliptic.GenerateKey(curve, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		odd, even, short = odd || y.Bit(0) == 1, even || y.Bit(0) == 0, short || x.BitLen() <= 248
		var got [pointLen]byte
		putCompressed(got[:], x, y)
		if want := elliptic.MarshalCompressed(curve, x, y); !bytes.Equal(got[:], want) {
			t.Fatalf("point %d: encoded %x, want %x", i, got, want)
		}
	}
}

func TestBaseOT(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	patterns := map[string]func() bool{
		"all-0":  func() bool { return false },
		"all-1":  func() bool { return true },
		"random": func() bool { return rng.Intn(2) == 1 },
	}
	for _, n := range []int{1, kappa} {
		for name, bit := range patterns {
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) {
				a, b := transport.Pair()
				defer a.Close()
				defer b.Close()
				choices := make([]bool, n)
				for i := range choices {
					choices[i] = bit()
				}
				pairs, got := runBaseOT(t, a, b, choices)
				checkBaseOT(t, pairs, got, choices)
			})
		}
	}
}

// offCurvePoint returns a well-formed 33-byte encoding whose x has no
// point on P-256.
func offCurvePoint(t testing.TB) []byte {
	t.Helper()
	enc := make([]byte, pointLen)
	enc[0] = 2
	for x := byte(1); x != 0; x++ {
		enc[pointLen-1] = x
		if px, _ := elliptic.UnmarshalCompressed(curve, enc); px == nil {
			return enc
		}
	}
	t.Fatal("no off-curve x below 256")
	return nil
}

func randomPoints(t testing.TB, n int) []byte {
	t.Helper()
	var out []byte
	for i := 0; i < n; i++ {
		_, x, y, err := elliptic.GenerateKey(curve, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, elliptic.MarshalCompressed(curve, x, y)...)
	}
	return out
}

// TestBaseOTRejectsMalformedMessages feeds each side of the protocol a
// peer message that is the wrong length, not a curve point, or an
// encoding of (or a point leading to) the point at infinity, and
// requires a *MessageError naming the OT instance — never a panic.
func TestBaseOTRejectsMalformedMessages(t *testing.T) {
	const n = 8
	bad := offCurvePoint(t)
	splice := func(msg []byte, i int, enc []byte) []byte {
		out := bytes.Clone(msg)
		copy(out[i*pointLen:], enc)
		return out
	}
	wantErr := func(t *testing.T, err error, index int) {
		t.Helper()
		var me *MessageError
		if !errors.As(err, &me) {
			t.Fatalf("got %v, want a *MessageError", err)
		}
		if me.Index != index {
			t.Fatalf("error %q names OT %d, want %d", me, me.Index, index)
		}
	}

	// Receiver side: the peer's only message is the setup point.
	for _, tc := range []struct {
		name string
		msg  []byte
	}{
		{"empty", nil},
		{"sec1-infinity", []byte{0}},
		{"short", randomPoints(t, 1)[:pointLen-1]},
		{"uncompressed", make([]byte, 65)},
		{"off-curve", bad},
		{"zero", make([]byte, pointLen)},
	} {
		t.Run("setup-point/"+tc.name, func(t *testing.T) {
			a, b := transport.Pair()
			defer a.Close()
			defer b.Close()
			if err := b.Send(tc.msg); err != nil {
				t.Fatal(err)
			}
			_, err := BaseRecv(a, make([]bool, n))
			wantErr(t, err, -1)
		})
	}

	// Sender side: the peer answers the setup point with n points;
	// "echo" answers instance 5 with the setup point itself, which would
	// put that instance's second key at infinity.
	good := randomPoints(t, n)
	for _, tc := range []struct {
		name  string
		msg   []byte
		echo  bool
		index int
	}{
		{"empty", nil, false, -1},
		{"one-short", good[:len(good)-1], false, -1},
		{"one-point-long", append(bytes.Clone(good), good[:pointLen]...), false, -1},
		{"off-curve", splice(good, 3, bad), false, 3},
		{"zero", splice(good, 0, make([]byte, pointLen)), false, 0},
		{"bad-prefix", splice(good, n-1, append([]byte{4}, good[1:pointLen]...)), false, n - 1},
		{"setup-point-echoed", good, true, 5},
	} {
		t.Run("receiver-points/"+tc.name, func(t *testing.T) {
			a, b := transport.Pair()
			defer a.Close()
			defer b.Close()
			go func() {
				s, err := b.Recv()
				if err != nil {
					return
				}
				msg := tc.msg
				if tc.echo {
					msg = splice(msg, tc.index, s)
				}
				b.Send(msg) // a closed conn surfaces in BaseSend's error
			}()
			_, err := BaseSend(a, n)
			wantErr(t, err, tc.index)
		})
	}
}

// wireConn records a copy of every message sent through it.
type wireConn struct {
	transport.Conn
	sent [][]byte
}

func (w *wireConn) Send(data []byte) error {
	w.sent = append(w.sent, bytes.Clone(data))
	return w.Conn.Send(data)
}

// TestBaseOTSameAtAnyWorkerCount runs the base OTs under a fixed entropy
// stream at 1, 2 and 4 workers: both messages (33 B and 4 224 B) and
// both parties' seeds must be the same bytes every time, as the scalars
// are drawn serially before each parallel section. The sender draws y
// before it sends S and the receiver draws its scalars after it receives
// S, so one stream serves both in a fixed order.
func TestBaseOTSameAtAnyWorkerCount(t *testing.T) {
	rng := mrand.New(mrand.NewSource(4))
	choices := make([]bool, kappa)
	for i := range choices {
		choices[i] = rng.Intn(2) == 1
	}
	type run struct {
		setup, points []byte
		pairs         [][2]prf.Seed
		seeds         []prf.Seed
	}
	saved := baseEntropy
	defer func() { baseEntropy = saved }()
	var first *run
	for _, workers := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			baseEntropy = prf.NewPRG(prf.Seed{5})
			a, b := transport.Pair()
			defer a.Close()
			defer b.Close()
			wa, wb := &wireConn{Conn: a}, &wireConn{Conn: b}
			pairs, seeds := runBaseOT(t, wa, wb, choices)
			checkBaseOT(t, pairs, seeds, choices)
			if len(wa.sent) != 1 || len(wb.sent) != 1 || len(wa.sent[0]) != pointLen || len(wb.sent[0]) != kappa*pointLen {
				t.Fatalf("%d workers: messages of the wrong shape", workers)
			}
			r := &run{wa.sent[0], wb.sent[0], pairs, seeds}
			if first == nil {
				first = r
				return
			}
			if !bytes.Equal(r.setup, first.setup) || !bytes.Equal(r.points, first.points) {
				t.Fatalf("%d workers: wire bytes differ from 1 worker's", workers)
			}
			for i := range r.pairs {
				if r.pairs[i] != first.pairs[i] || r.seeds[i] != first.seeds[i] {
					t.Fatalf("%d workers: OT %d's seeds differ from 1 worker's", workers, i)
				}
			}
		}()
	}
}

// TestBaseOTReportsLowestBadPoint gives the sender κ points with one or
// two bad ones, far apart so that they fall in different workers'
// chunks, and requires the *MessageError of the lowest bad index at 1, 2
// and 4 workers.
func TestBaseOTReportsLowestBadPoint(t *testing.T) {
	good := randomPoints(t, kappa)
	offCurve := offCurvePoint(t)
	for _, tc := range []struct {
		name  string
		bad   []int // off-curve points
		echo  int   // the setup point echoed back, or -1
		index int
	}{
		{"one", []int{3}, -1, 3},
		{"two", []int{5, 100}, -1, 5},
		{"last", []int{kappa - 1}, -1, kappa - 1},
		{"echo-then-off-curve", []int{90}, 40, 40},
		{"off-curve-then-echo", []int{17}, 120, 17},
	} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				a, b := transport.Pair()
				defer a.Close()
				defer b.Close()
				go func() {
					s, err := b.Recv()
					if err != nil {
						return
					}
					msg := bytes.Clone(good)
					for _, i := range tc.bad {
						copy(msg[i*pointLen:], offCurve)
					}
					if tc.echo >= 0 {
						copy(msg[tc.echo*pointLen:], s)
					}
					b.Send(msg)
				}()
				_, err := BaseSend(a, kappa)
				var me *MessageError
				if !errors.As(err, &me) || me.Index != tc.index {
					t.Fatalf("got %v, want a *MessageError for OT %d", err, tc.index)
				}
			})
		}
	}
}

// FuzzBaseOTMessages hands arbitrary bytes to both decoders of the
// base OT through an in-memory transport: as the setup point BaseRecv
// reads and as the point list BaseSend reads. Either they are accepted
// and the outputs are well-formed, or the error is a *MessageError. The
// same bytes are also the correction matrix of a derived direction's
// setup (Sender.Reverse) and of a KKRT setup (NewKKRTReceiver): each
// accepted, or a *transport.SizeError.
func FuzzBaseOTMessages(f *testing.F) {
	good := randomPoints(f, 4)
	f.Add(good[:pointLen])
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(offCurvePoint(f))
	f.Add(make([]byte, pointLen))
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Add(make([]byte, DeriveCost()))
	f.Add(make([]byte, KKRTSetupCost()))
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(err error) bool {
			var me *MessageError
			if err != nil && !errors.As(err, &me) {
				t.Fatalf("got %v, want nil or a *MessageError", err)
			}
			return err == nil
		}
		n := len(data) / pointLen

		a, b := transport.Pair()
		defer a.Close()
		defer b.Close()
		if err := b.Send(data); err != nil {
			t.Fatal(err)
		}
		seeds, err := BaseRecv(a, make([]bool, n))
		if check(err) {
			reply, err := b.Recv()
			if err != nil || len(seeds) != n || len(reply) != n*pointLen {
				t.Fatalf("accepted setup point: %d seeds, %d reply bytes, err %v", len(seeds), len(reply), err)
			}
		}

		c, d := transport.Pair()
		defer c.Close()
		defer d.Close()
		if err := d.Send(data); err != nil {
			t.Fatal(err)
		}
		pairs, err := BaseSend(c, n)
		if check(err) {
			if len(pairs) != n {
				t.Fatalf("accepted %d points, returned %d pairs", n, len(pairs))
			}
			for i, p := range pairs {
				if p[0] == p[1] {
					t.Fatalf("OT %d: both seeds equal", i)
				}
			}
		}

		snd, peer := reverseVictim(t)
		if err := peer.Send(data); err != nil {
			t.Fatal(err)
		}
		r, err := snd.Reverse()
		var se *transport.SizeError
		switch {
		case err == nil && (r == nil || len(data) != int(DeriveCost())):
			t.Fatalf("accepted a %d-byte matrix (receiver %v)", len(data), r)
		case err != nil && !errors.As(err, &se):
			t.Fatalf("derived setup: got %v, want nil or a *transport.SizeError", err)
		}

		snd, peer = reverseVictim(t)
		if err := peer.Send(data); err != nil {
			t.Fatal(err)
		}
		kr, err := NewKKRTReceiver(snd)
		switch {
		case err == nil && (kr == nil || len(data) != int(KKRTSetupCost())):
			t.Fatalf("accepted a %d-byte KKRT setup matrix (receiver %v)", len(data), kr)
		case err != nil && !errors.As(err, &se):
			t.Fatalf("KKRT setup: got %v, want nil or a *transport.SizeError", err)
		}
	})
}

// BenchmarkBaseOT measures one κ-instance base-OT batch, both sides in
// this process — the public-key part of one NewSender/NewReceiver pair;
// compare with BenchmarkExtOT for the symmetric part.
func BenchmarkBaseOT(b *testing.B) {
	choices := make([]bool, kappa)
	for i := range choices {
		choices[i] = i%3 == 0
	}
	ca, cb := transport.Pair()
	defer ca.Close()
	defer cb.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBaseOT(b, ca, cb, choices)
	}
}
