package oep

import (
	"errors"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/ot"
	"secyan/internal/share"
	"secyan/internal/transport"
)

// FuzzOEPMessages drives a whole OEP — bijective over 6 elements or
// extended from 4 to 7 — against a hostile peer: the fuzzer plays one
// party by writing raw messages to its end of the pipe while the other
// runs the real protocol. A truncated or oversized message must fail
// with a *transport.SizeError, a bit-flipped one of the right length may
// only garble the output shares, and nothing may panic.
//
// side 0 attacks the helper (the fuzzer sends the programmer's
// OT-extension matrix), side 1 the programmer (the fuzzer sends the
// helper's correlated-OT corrections); sides 2 and 3 are the same on a
// pooled batch, so the fuzzer sends derandomization bits resp.
// corrections after them. mode 0 leaves the message alone, 1 truncates it
// by cut bytes, 2 appends cut bytes, 3 flips bit `bit`. One party pair
// serves the whole run: the OT sessions' states drift apart as
// iterations consume them, which only garbles pads — lengths, the
// subject here, are unaffected.
func FuzzOEPMessages(f *testing.F) {
	alice, bob := mpc.Pair(share.Ring{Bits: 32})
	f.Cleanup(func() { alice.Conn.Close(); bob.Conn.Close() })
	done := make(chan error, 1)
	go func() { _, err := bob.OTSender(); done <- err }()
	if _, err := alice.OTReceiver(); err != nil {
		f.Fatal(err)
	}
	if err := <-done; err != nil {
		f.Fatal(err)
	}

	for side := uint8(0); side < 4; side++ {
		for mode := uint8(0); mode < 4; mode++ {
			for ext := uint8(0); ext < 2; ext++ {
				f.Add(side, mode, ext, uint32(1), uint32(9))
				f.Add(side, mode, ext, uint32(4000), uint32(1<<20))
			}
		}
	}
	f.Fuzz(func(t *testing.T, side, mode, ext uint8, cut, bit uint32) {
		m, n, bijection := 6, 6, true
		xi := []int{3, 0, 5, 1, 4, 2}
		if ext%2 == 1 {
			m, n, bijection = 4, 7, false
			xi = []int{3, 3, 0, 2, 1, 0, 3}
		}
		gates, msgLen := Gates(m, n, bijection), MsgLen(alice.Ring.Bits)
		pooled := side%4 >= 2
		goodLen := gates * msgLen // the helper's corrections
		switch {
		case side%2 == 1:
		case pooled:
			goodLen = int(ot.RandomOnlineCost(gates)) // the programmer's derandomization bits
		default:
			goodLen = int(ot.ExtOfflineCost(gates)) // the programmer's matrix
		}
		if pooled {
			fillBoth(t, alice, bob, gates, msgLen)
		}
		msg := make([]byte, goodLen)
		switch mode % 4 {
		case 1:
			msg = msg[:len(msg)-1-int(cut)%len(msg)]
		case 2:
			msg = append(msg, make([]byte, 1+cut%4096)...)
		case 3:
			msg[int(bit/8)%len(msg)] ^= 1 << (bit % 8)
		}
		shares := make([]uint64, m)

		var err error
		if side%2 == 0 {
			if pooled {
				rcv, _ := alice.OTReceiver()
				rcv.Pool().Clear() // the fuzzer stands in for its batch
			}
			if err := alice.Conn.Send(msg); err != nil {
				t.Fatal(err)
			}
			if bijection {
				_, err = RunPermuteHelper(bob, n, shares)
			} else {
				_, err = RunHelper(bob, m, n, shares)
			}
			if err == nil {
				// Keep the pipe in step: drop the helper's corrections.
				if _, err := alice.Conn.Recv(); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			res := make(chan error, 1)
			go func() {
				var err error
				if bijection {
					_, err = RunPermuteProgrammer(alice, xi, shares)
				} else {
					_, err = RunProgrammer(alice, xi, m, shares)
				}
				res <- err
			}()
			if _, err := bob.Conn.Recv(); err != nil { // the programmer's matrix or bits
				t.Fatal(err)
			}
			if pooled {
				snd, _ := bob.OTSender()
				snd.Pool().Clear() // the fuzzer stands in for its batch
			}
			if err := bob.Conn.Send(msg); err != nil {
				t.Fatal(err)
			}
			err = <-res
		}
		var se *transport.SizeError
		switch sized := len(msg) == goodLen; {
		case sized && err != nil:
			t.Fatalf("side %d: well-sized message of %d bytes rejected: %v", side%2, len(msg), err)
		case !sized && !errors.As(err, &se):
			t.Fatalf("side %d: message of %d bytes (want %d): %v, want a *transport.SizeError", side%2, len(msg), goodLen, err)
		}
	})
}

// fillBoth fills one pooled batch of m OTs on the pair, Alice receiving.
func fillBoth(t *testing.T, alice, bob *mpc.Party, m, msgLen int) {
	t.Helper()
	rcv, err := alice.OTReceiver()
	if err != nil {
		t.Fatal(err)
	}
	snd, err := bob.OTSender()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- snd.FillRandom(m, msgLen) }()
	if err := rcv.FillRandom(m, msgLen); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
