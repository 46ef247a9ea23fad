package gc

import (
	"math/rand"
	"reflect"
	"testing"

	"secyan/internal/prf"
	"secyan/internal/transport"
)

// FuzzGarbledMessage feeds the evaluator hostile garbler messages. It
// evaluates the message where it was received — tables, labels and
// decode bits are read through views of the peer's bytes — so a message
// of the wrong length (truncated or oversized) and a short batch of OT
// labels must be rejected before the first read, and a message of the
// right length with flipped bits must evaluate to garbage, never panic
// or read past the buffer. The untouched message must still decode to
// the plaintext result.
//
// mode selects the mutation: 0 none, 1 truncate to cut bytes, 2 append
// cut bytes, 3 flip bit `bit`, 4 drop the last cut%n labels, 5 shorten
// one label. The 11-slot circuit spans two batches, the second partial.
func FuzzGarbledMessage(f *testing.F) {
	c := slotted(correctionGadget, 11)
	gbits, ebits, priv := randomInputs(rand.New(rand.NewSource(12)), c)
	gb := garble(c, prf.NewPRG(prf.Seed{0xf2}), priv, false)
	good, labels := activate(c, gb, gbits), activeLabels(gb, ebits)
	want, _, err := c.EvalPlain(gbits, ebits, priv)
	if err != nil {
		f.Fatal(err)
	}

	for mode := uint8(0); mode < 6; mode++ {
		f.Add(mode, uint32(1), uint32(len(good)*8-1))
		f.Add(mode, uint32(len(good)-1), uint32(0))
		f.Add(mode, uint32(16), uint32(16*c.TableBlocks()*8+3))
	}
	f.Fuzz(func(t *testing.T, mode uint8, cut, bit uint32) {
		msg := append([]byte(nil), good...)
		ls := append([][]byte(nil), labels...)
		mutated, mustFail := true, true
		switch mode % 6 {
		case 0:
			mutated, mustFail = false, false
		case 1:
			msg = msg[:len(msg)-1-int(cut)%len(msg)]
		case 2:
			msg = append(msg, make([]byte, 1+cut%4096)...)
		case 3:
			msg[int(bit/8)%len(msg)] ^= 1 << (bit % 8)
			mustFail = false
		case 4:
			ls = ls[:len(ls)-1-int(cut)%len(ls)]
		case 5:
			i := int(cut) % len(ls)
			ls[i] = ls[i][:int(bit)%16]
		}

		out, _, err := evaluate(c, msg, ls)
		switch {
		case mustFail && err == nil:
			t.Fatalf("mode %d: evaluate accepted a malformed input", mode%6)
		case !mustFail && err != nil:
			t.Fatalf("mode %d: evaluate rejected a well-formed input: %v", mode%6, err)
		case !mutated && !reflect.DeepEqual(out, want):
			t.Fatal("untouched message no longer decodes to the plaintext result")
		}

		// The protocol entry point must reject a wrong-length message
		// before it asks for a single OT (the receiver here is nil).
		if len(msg) != len(good) {
			a, b := transport.Pair()
			defer a.Close()
			defer b.Close()
			if err := a.Send(msg); err != nil {
				t.Fatal(err)
			}
			if _, err := RunEvaluator(b, nil, c, ebits); err == nil {
				t.Fatal("RunEvaluator accepted a garbled message of the wrong length")
			}
		}
	})
}
