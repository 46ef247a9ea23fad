package psi

import (
	"encoding/binary"
	"errors"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/ot"
	"secyan/internal/prf"
	"secyan/internal/share"
	"secyan/internal/transport"
)

// FuzzPSIMessages feeds the decoders this package owns hostile peer
// messages. The receiver reads the sender's hint through views of the
// peer's bytes, the sender sizes its OPRF keys from the receiver's KKRT
// matrix, and the ρ-OT runs the other way: the receiver, as
// OT sender, reads the sender's opening message (matrix or bits), and the
// sender reads her corrections. Every length is fixed by the public
// parameters, so a truncated or oversized message must be a typed error
// before the first read, and a message of the right length with flipped
// bits must decode to garbage — never panic, never read past the buffer,
// never size an allocation. The untouched hint must still decode to what
// was programmed.
//
// what selects the message (0 hint, 1 KKRT matrix, 2 direct ρ-OT
// opening, 3 pooled ρ-OT opening, 4 ρ-OT corrections), mode the mutation
// (0 none, 1 truncate by cut bytes, 2 append cut bytes, 3 flip bit
// `bit`).
func FuzzPSIMessages(f *testing.F) {
	pr := NewParams(5, 9)
	h := pr.hint(32)
	g := prf.NewPRG(prf.Seed{0xf5})
	seed := g.Seed()

	// A well-formed hint: the store programmed at all 3N keys.
	keys, vals := make([]uint64, 3*pr.N), make([]value, 3*pr.N)
	for i := range keys {
		keys[i] = uint64(i)<<2 | uint64(i%3)
		vals[i] = h.mask(value{g.Uint64(), g.Uint64()})
	}
	goodHint, err := encodeKeys(h, seed, keys, vals, g)
	if err != nil {
		f.Fatal(err)
	}

	// One party pair for the whole run: the fuzzer plays one party's
	// protocol code by writing raw messages to its end of the pipe —
	// Alice's, except for the ρ-OT openings, which are Bob's. The OT
	// states of the two ends drift apart as iterations consume one side,
	// which only garbles pads — lengths, the subject here, are unaffected.
	alice, bob := mpc.Pair(share.Ring{Bits: 32})
	f.Cleanup(func() { alice.Conn.Close(); bob.Conn.Close() })
	warmOT(f, alice, bob)
	const w = 32
	us := make([]uint64, pr.B)
	for bin := range us {
		us[bin] = g.Uint64() & lowBits(w)
	}
	goods := [][]byte{
		goodHint,
		make([]byte, ot.KKRTCost(pr.B)),
		make([]byte, ot.ExtOfflineCost(pr.B)),
		make([]byte, (pr.B+7)/8),
		make([]byte, pr.B*rhoBytes(w)),
	}

	for what := uint8(0); what < 5; what++ {
		for mode := uint8(0); mode < 4; mode++ {
			f.Add(what, mode, uint32(1), uint32(77))
			f.Add(what, mode, uint32(len(goodHint)), uint32(len(goodHint)*8-1))
		}
	}
	// The KKRT matrix replaced two arms (the direct and the pooled IKNP
	// OPRF correction) and keeps their seed budget: every mutation again,
	// in the middle and in the last column of its 512.
	kkrtLen := uint32(len(goods[1]))
	for mode := uint8(0); mode < 4; mode++ {
		f.Add(uint8(1), mode, kkrtLen/2, kkrtLen*4)
		f.Add(uint8(1), mode, kkrtLen-1, kkrtLen*8-1)
	}
	f.Fuzz(func(t *testing.T, what, mode uint8, cut, bit uint32) {
		what %= 5
		good := goods[what]
		msg := append([]byte(nil), good...)
		switch mode % 4 {
		case 1:
			msg = msg[:len(msg)-1-int(cut)%len(msg)]
		case 2:
			msg = append(msg, make([]byte, 1+cut%4096)...)
		case 3:
			msg[int(bit/8)%len(msg)] ^= 1 << (bit % 8)
		}
		sized := len(msg) == len(good)
		// Stage a pooled batch first, so that the OT sender expects one
		// derandomization bit per OT instead of the matrix.
		pool := func(snd *ot.Sender, rcv *ot.Receiver, m, msgLen int) {
			done := make(chan error, 1)
			go func() { done <- rcv.FillRandom(m, msgLen) }()
			if err := snd.FillRandom(m, msgLen); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rcv.Pool().Clear)
		}
		var se *transport.SizeError
		check := func(err error, what string) {
			t.Helper()
			switch {
			case sized && err != nil:
				t.Fatalf("well-sized %s rejected: %v", what, err)
			case !sized && !errors.As(err, &se):
				t.Fatalf("%s of %d bytes (want %d): %v, want a *transport.SizeError", what, len(msg), len(good), err)
			}
		}
		if what == 3 {
			snd, _ := alice.OTSender()
			rcv, _ := bob.OTReceiver()
			pool(snd, rcv, pr.B, rhoBytes(w))
		}
		if what == 2 || what == 3 {
			// Bob's opening, read by Alice's half; a well-sized one draws
			// her corrections, which the fuzzer drains as Bob.
			if err := bob.Conn.Send(msg); err != nil {
				t.Fatal(err)
			}
			s, err := rhoSend(alice, us, w)
			check(err, "ρ-OT opening")
			if sized {
				if len(s) != pr.B {
					t.Fatalf("ρ-OT returned %d words, want %d", len(s), pr.B)
				}
				if _, err := bob.Conn.Recv(); err != nil {
					t.Fatal(err)
				}
			}
			return
		}
		if err := alice.Conn.Send(msg); err != nil {
			t.Fatal(err)
		}
		if what == 4 {
			// Alice's corrections, read by Bob's half after it sends its
			// (direct) opening, which the fuzzer drains as Alice.
			rho, x, err := rhoReceive(bob, pr.B, w)
			check(err, "ρ-OT corrections")
			if sized && (len(rho) != pr.B || len(x) != pr.B) {
				t.Fatalf("ρ-OT returned %d choices and %d words, want %d", len(rho), len(x), pr.B)
			}
			if _, err := alice.Conn.Recv(); err != nil {
				t.Fatal(err)
			}
			return
		}

		if what == 0 {
			hint, err := transport.RecvSized(bob.Conn, "psi: hint", h.bytes())
			if check(err, "hint"); !sized {
				return
			}
			h.decode(hint, seed, receiverDummyKey)
			for i, k := range keys {
				if got := h.decode(hint, seed, k); mode%4 == 0 && got != vals[i] {
					t.Fatalf("untouched hint: key %d decodes to %+v, programmed %+v", i, got, vals[i])
				}
			}
			return
		}

		o, err := oprfSend(bob, h, seed, pr.B)
		if check(err, "KKRT matrix"); sized {
			for bin := 0; bin < pr.B; bin++ {
				o.eval(bin, uint64(bin)<<2)
			}
		}
	})
}

// FuzzOKVS programs the store at fuzzer-chosen distinct keys, values and
// widths, and decodes every programmed key back to its value; the hint
// it sends must reach the receiver only at its exact public length —
// RecvSized refuses a truncated or extended one before allocating a
// payload-sized buffer. raw holds 8 bytes per key (duplicates are
// dropped, as the senders merge or refuse them), n pads the set with
// small counting keys up to n mod 4096, vseed draws the values and
// resize cuts or extends the sent hint.
func FuzzOKVS(f *testing.F) {
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00"), uint16(0), uint8(32), uint8(7), uint64(1), int16(0))
	f.Add([]byte{}, uint16(0), uint8(1), uint8(1), uint64(2), int16(-3))
	f.Add([]byte("abcdefghABCDEFGH"), uint16(2000), uint8(64), uint8(64), uint64(3), int16(5))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff"), uint16(300), uint8(11), uint8(40), uint64(4), int16(1))
	alice, bob := mpc.Pair(share.Ring{Bits: 32})
	f.Cleanup(func() { alice.Conn.Close(); bob.Conn.Close() })
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, w, tau uint8, vseed uint64, resize int16) {
		seen := map[uint64]bool{}
		var keys []uint64
		for ; len(raw) >= 8; raw = raw[8:] {
			if k := binary.LittleEndian.Uint64(raw); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		for k := uint64(len(keys)); len(keys) < int(n%4096); k++ {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		h := hintDims{slots: okvsSlots(len(keys), bandBits), band: bandBits,
			tau: 1 + int(tau)%64, width: 1 + int(w)%64}
		g := prf.NewPRG(prf.Seed{byte(vseed), byte(vseed >> 8), byte(vseed >> 16)})
		vals := make([]value, len(keys))
		for i := range vals {
			vals[i] = h.mask(value{g.Uint64(), g.Uint64()})
		}
		seed := g.Seed()
		hint, err := encodeKeys(h, seed, keys, vals, g)
		if err != nil {
			t.Fatalf("%d keys: %v", len(keys), err)
		}
		msg := hint
		if resize > 0 {
			msg = append(hint[:len(hint):len(hint)], make([]byte, int(resize))...)
		} else if resize < 0 {
			msg = hint[:max(0, len(hint)+int(resize))]
		}
		if err := alice.Conn.Send(append([]byte(nil), msg...)); err != nil {
			t.Fatal(err)
		}
		got, err := transport.RecvSized(bob.Conn, "psi: hint", h.bytes())
		var se *transport.SizeError
		if resize != 0 {
			if !errors.As(err, &se) {
				t.Fatalf("hint of %d bytes (want %d): %v, want a *transport.SizeError", len(msg), h.bytes(), err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if v := h.decode(got, seed, k); v != vals[i] {
				t.Fatalf("%d keys, w=%d τ=%d: key %#x decodes to %+v, programmed %+v", len(keys), h.width, h.tau, k, v, vals[i])
			}
		}
		if v := h.decode(got, seed, receiverDummyKey); v != h.mask(v) {
			t.Fatalf("decoded value %+v exceeds the slot widths", v)
		}
	})
}
