package gc

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"secyan/internal/ot"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// FuzzGarbledMessage feeds the evaluator hostile garbler messages and the
// garbler hostile label-OT messages. The evaluator evaluates the message
// where it was received — tables, labels and decode bits are read through
// views of the peer's bytes — so a message or label vector of the wrong
// length must be rejected before the first read, and a message of the
// right length with flipped bits must evaluate to garbage, never panic or
// read past the buffer. Untouched messages must still decode to the
// plaintext result.
//
// where selects the target. 0 is evaluate itself: mode 0 none, 1
// truncate to cut bytes, 2 append cut bytes, 3 flip bit `bit`, 4 drop the
// last cut%n labels, 5 shorten one label. The others run the whole
// protocol with one message rewritten in flight, mode%4 being none,
// truncate, append or flip: 1 the garbler's reply to a direct label
// batch (flips land in its correction vector), 2 its reply to a pooled
// batch (corrections and label shifts), 3 the evaluator's
// derandomization bits. A rewrite to the wrong length must fail with a
// *transport.SizeError on the receiving side. The 11-slot circuit spans
// two batches, the second partial.
func FuzzGarbledMessage(f *testing.F) {
	c := slotted(correctionGadget, 11)
	gbits, ebits, priv := randomInputs(rand.New(rand.NewSource(12)), c)
	gb := garble(c, prf.NewPRG(prf.Seed{0xf2}), priv, false, nil, nil)
	good, labels := activate(c, gb, gbits), activeLabels(gb, ebits)
	want, _, err := c.EvalPlain(gbits, ebits, priv)
	if err != nil {
		f.Fatal(err)
	}

	for mode := uint8(0); mode < 6; mode++ {
		f.Add(uint8(0), mode, uint32(1), uint32(len(good)*8-1))
		f.Add(uint8(0), mode, uint32(len(good)-1), uint32(0))
		f.Add(uint8(0), mode, uint32(16), uint32(16*c.TableBlocks()*8+3))
	}
	for where := uint8(1); where < 4; where++ {
		for mode := uint8(0); mode < 4; mode++ {
			f.Add(where, mode, uint32(1), uint32(9))
			f.Add(where, mode, uint32(4000), uint32(1<<20))
		}
	}
	f.Fuzz(func(t *testing.T, where, mode uint8, cut, bit uint32) {
		if where%4 != 0 {
			fuzzLabelOT(t, c, gbits, ebits, priv, want, where%4, mode%4, cut, bit)
			return
		}
		msg := append([]byte(nil), good...)
		ls := append([]byte(nil), labels...)
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
			ls = ls[:len(ls)-16*(1+int(cut)%(len(ls)/16))]
		case 5:
			ls = ls[:len(ls)-16+int(bit)%16]
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
	})
}

// rewriteFirst rewrites the first message sent through it.
type rewriteFirst struct {
	transport.Conn
	f func([]byte) []byte
}

func (r *rewriteFirst) Send(b []byte) error {
	if f := r.f; f != nil {
		r.f = nil
		b = f(append([]byte(nil), b...))
	}
	return r.Conn.Send(b)
}

// fuzzLabelOT runs c between a fresh garbler and evaluator, pooled for
// where 2 and 3, rewriting the garbler's reply (where 1, 2) or the
// evaluator's derandomization bits (where 3) by mode. Whichever side
// fails closes its end, so the other never waits forever.
func fuzzLabelOT(t *testing.T, c *Circuit, gbits, ebits, priv, want []bool, where, mode uint8, cut, bit uint32) {
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()
	var snd *ot.Sender
	setup := make(chan error, 1)
	go func() {
		var err error
		snd, err = ot.NewSender(a)
		setup <- err
	}()
	rcv, err := ot.NewReceiver(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-setup; err != nil {
		t.Fatal(err)
	}
	nE := c.Slots * len(c.EvalInputs)
	if where > 1 {
		go func() { setup <- snd.FillRandom(nE, 16) }()
		if err := rcv.FillRandom(nE, 16); err != nil {
			t.Fatal(err)
		}
		if err := <-setup; err != nil {
			t.Fatal(err)
		}
	}
	_, _, _, total := c.msgLayout()
	rewrite := func(msg []byte) []byte {
		switch mode {
		case 1:
			return msg[:len(msg)-1-int(cut)%len(msg)]
		case 2:
			return append(msg, make([]byte, 1+cut%4096)...)
		case 3:
			off := 0
			if where < 3 {
				off = total // the OT tail: corrections, then label shifts
			}
			msg[off+int(bit/8)%(len(msg)-off)] ^= 1 << (bit % 8)
		}
		return msg
	}
	ga, eb := transport.Conn(a), transport.Conn(b)
	if where < 3 {
		ga = &rewriteFirst{Conn: a, f: rewrite}
	} else {
		eb = &rewriteFirst{Conn: b, f: rewrite}
	}

	gerr := make(chan error, 1)
	go func() {
		_, err := RunGarbler(ga, snd, c, gbits, priv)
		if err != nil {
			a.Close()
		}
		gerr <- err
	}()
	out, eErr := RunEvaluator(eb, rcv, c, ebits)
	if eErr != nil {
		b.Close()
	}
	gErr := <-gerr

	victim, other := eErr, gErr
	if where == 3 {
		victim, other = gErr, eErr
	}
	var se *transport.SizeError
	switch {
	case mode == 1 || mode == 2:
		if !errors.As(victim, &se) {
			t.Fatalf("where %d mode %d: %v, want a *transport.SizeError", where, mode, victim)
		}
	case victim != nil || other != nil:
		t.Fatalf("where %d mode %d: well-sized messages rejected: %v / %v", where, mode, victim, other)
	case mode == 0 && !reflect.DeepEqual(out, want):
		t.Fatalf("where %d: untouched run no longer decodes to the plaintext result", where)
	}
}
