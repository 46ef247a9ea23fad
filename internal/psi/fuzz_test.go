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
// peer's bytes, the sender sizes its OPRF keys from the receiver's
// correction message (the IKNP matrix on the direct path, one bit per OT
// on the pooled one), and the ρ-OT runs the other way: the receiver, as
// OT sender, reads the sender's opening message (matrix or bits), and the
// sender reads her corrections. Every length is fixed by the public
// parameters, so a truncated or oversized message must be a typed error
// before the first read, and a message of the right length with flipped
// bits must decode to garbage — never panic, never read past the buffer,
// never size an allocation. The untouched hint must still decode to what
// was programmed.
//
// what selects the message (0 hint, 1 direct OPRF correction, 2 pooled
// OPRF correction, 3 direct ρ-OT opening, 4 pooled ρ-OT opening, 5 ρ-OT
// corrections), mode the mutation (0 none, 1 truncate by cut bytes, 2
// append cut bytes, 3 flip bit `bit`).
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
	m := pr.B * keyBits
	const w = 32
	us := make([]uint64, pr.B)
	for bin := range us {
		us[bin] = g.Uint64() & lowBits(w)
	}
	goods := [][]byte{
		goodHint,
		make([]byte, ot.RandomCost(m)), // OPRF matrix
		make([]byte, (m+7)/8),          // OPRF bits
		make([]byte, ot.RandomCost(pr.B)),
		make([]byte, (pr.B+7)/8),
		make([]byte, pr.B*rhoBytes(w)),
	}

	for what := uint8(0); what < 6; what++ {
		for mode := uint8(0); mode < 4; mode++ {
			f.Add(what, mode, uint32(1), uint32(77))
			f.Add(what, mode, uint32(len(goodHint)), uint32(len(goodHint)*8-1))
		}
	}
	f.Fuzz(func(t *testing.T, what, mode uint8, cut, bit uint32) {
		what %= 6
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
		switch what {
		case 2:
			snd, _ := bob.OTSender()
			rcv, _ := alice.OTReceiver()
			pool(snd, rcv, m, padLen)
		case 4:
			snd, _ := alice.OTSender()
			rcv, _ := bob.OTReceiver()
			pool(snd, rcv, pr.B, rhoBytes(w))
		}
		if what == 3 || what == 4 {
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
		if what == 5 {
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

		keysOut, err := oprfSend(bob, h, pr.B)
		if check(err, "OPRF correction"); sized && len(keysOut.r0) != m {
			t.Fatalf("OPRF returned %d pads, want %d", len(keysOut.r0), m)
		}
	})
}
