package ot

import (
	"bytes"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
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
