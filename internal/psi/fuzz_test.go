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

// FuzzPSIMessages feeds the two decoders this package owns hostile peer
// messages. The receiver reads the sender's hint through views of the
// peer's bytes, and the sender sizes its OPRF keys from the receiver's
// correction message (the IKNP matrix on the direct path, one bit per OT
// on the pooled one); both lengths are fixed by the public parameters,
// so a truncated or oversized message must be a typed error before the
// first read, and a message of the right length with flipped bits must
// decode to garbage — never panic, never read past the buffer, never
// size an allocation. The untouched hint must still decode to what was
// programmed.
//
// what selects the message (0 hint, 1 direct correction, 2 pooled
// correction), mode the mutation (0 none, 1 truncate by cut bytes, 2
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

	// One party pair for the whole run: the fuzzer plays Alice's protocol
	// code by writing raw messages to her end of the pipe. Bob's sender
	// state drifts from her receiver's as iterations consume it, which
	// only garbles pads — lengths, the subject here, are unaffected.
	alice, bob := mpc.Pair(share.Ring{Bits: 32})
	f.Cleanup(func() { alice.Conn.Close(); bob.Conn.Close() })
	warmOT(f, alice, bob)
	m := pr.B * keyBits
	goodMatrix := make([]byte, ot.RandomCost(m))
	goodBits := make([]byte, (m+7)/8)

	for what := uint8(0); what < 3; what++ {
		for mode := uint8(0); mode < 4; mode++ {
			f.Add(what, mode, uint32(1), uint32(77))
			f.Add(what, mode, uint32(len(goodHint)), uint32(len(goodHint)*8-1))
		}
	}
	f.Fuzz(func(t *testing.T, what, mode uint8, cut, bit uint32) {
		good := [][]byte{goodHint, goodMatrix, goodBits}[what%3]
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
		if what%3 == 2 {
			// Stage a pooled batch first, so that the sender expects one
			// derandomization bit per OT instead of the matrix.
			snd, _ := bob.OTSender()
			rcv, _ := alice.OTReceiver()
			done := make(chan error, 1)
			go func() { done <- rcv.FillRandom(m, padLen) }()
			if err := snd.FillRandom(m, padLen); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			defer rcv.Pool().Clear()
		}
		if err := alice.Conn.Send(msg); err != nil {
			t.Fatal(err)
		}

		if what%3 == 0 {
			hint, err := transport.RecvSized(bob.Conn, "psi: hint", pr.B*bb)
			var me *transport.SizeError
			switch {
			case sized && err != nil:
				t.Fatalf("well-sized hint rejected: %v", err)
			case !sized && !errors.As(err, &me):
				t.Fatalf("hint of %d bytes (want %d): %v, want a *transport.SizeError", len(msg), len(good), err)
			case !sized:
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
		var se *transport.SizeError
		switch {
		case sized && err != nil:
			t.Fatalf("well-sized correction rejected: %v", err)
		case sized && len(keysOut.r0) != m:
			t.Fatalf("OPRF returned %d pads, want %d", len(keysOut.r0), m)
		case !sized && !errors.As(err, &se):
			t.Fatalf("correction of %d bytes (want %d): %v, want a *transport.SizeError", len(msg), len(good), err)
		}
	})
}
