package psi

import (
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

	// A well-formed hint: every bin programmed at load bin % (L+1).
	enc := newHintCoder(h, seed, pr.L)
	bb := h.binBytes()
	goodHint := make([]byte, pr.B*bb)
	keys, vals := make([][]uint64, pr.B), make([][]value, pr.B)
	for bin := range keys {
		for i := 0; i < bin%(pr.L+1); i++ {
			keys[bin] = append(keys[bin], uint64(bin*64+i)<<2)
			vals[bin] = append(vals[bin], h.mask(value{g.Uint64(), g.Uint64()}))
		}
		if err := enc.encode(goodHint[bin*bb:(bin+1)*bb], keys[bin], vals[bin], g); err != nil {
			f.Fatal(err)
		}
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
			hint, err := transport.RecvSized(bob.Conn, "psi: hint", pr.B*bb)
			if check(err, "hint"); !sized {
				return
			}
			dec := newHintCoder(h, seed, 0)
			for bin := range keys {
				dec.decode(hint[bin*bb:(bin+1)*bb], receiverDummyKey)
				for i, k := range keys[bin] {
					if got := dec.decode(hint[bin*bb:(bin+1)*bb], k); mode%4 == 0 && got != vals[bin][i] {
						t.Fatalf("untouched hint: bin %d key %d decodes to %+v, programmed %+v", bin, i, got, vals[bin][i])
					}
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
