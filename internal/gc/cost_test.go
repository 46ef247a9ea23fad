package gc

import (
	"testing"

	"secyan/internal/ot"
	"secyan/internal/transport"
)

// testOpCircuit builds a circuit shaped like the engine's operator
// circuits: a per-tuple gadget repeated n times with the first tuple
// slightly different, private garbler bits, outputs to both sides and a
// ragged keyed payload per tuple.
func testOpCircuit(n int) *Circuit {
	const ell = 32
	b := NewBuilder()
	var acc Word
	for i := 0; i < n; i++ {
		x := b.EvalInputWord(ell)
		m := b.PrivateWord(ell)
		s := b.AddPrivate(x, m)
		if i == 0 {
			acc = s
		} else {
			eq := b.Eq(x, b.GarblerInputWord(ell))
			acc = b.MuxWord(eq, b.Add(acc, s), s)
		}
		nz := b.NonZero(acc)
		b.OutputWordToEval(b.ANDWordBit(s, nz))
		b.OutputPayloadIf(nz, m[:13])
	}
	if n > 0 {
		b.OutputToGarbler(b.IsZero(acc))
	}
	return b.Build()
}

// TestInterpolateDimsExact verifies that extrapolating from the tiny
// probes reproduces the dimensions of actually-built circuits at every
// n ≤ 64 and a handful of larger sizes.
func TestInterpolateDimsExact(t *testing.T) {
	sizes := []int{97, 128, 200}
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		if got, want := InterpolateDims(testOpCircuit, n), DimsOf(testOpCircuit(n)); got != want {
			t.Fatalf("n=%d: interpolated %+v, built %+v", n, got, want)
		}
	}
}

// TestMessageCostExact runs the real protocol and compares measured
// traffic (minus the one-time base-OT setup) to Dims.MessageCost.
func TestMessageCostExact(t *testing.T) {
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()

	type res struct{ err error }
	ch := make(chan res, 1)
	var snd *ot.Sender
	go func() {
		var err error
		snd, err = ot.NewSender(a)
		ch <- res{err}
	}()
	rcv, err := ot.NewReceiver(b)
	if err != nil {
		t.Fatalf("ot receiver: %v", err)
	}
	if r := <-ch; r.err != nil {
		t.Fatalf("ot sender: %v", r.err)
	}

	for _, n := range []int{1, 5, 20} {
		c := testOpCircuit(n)
		if err := c.Validate(); err != nil {
			t.Fatalf("n=%d: invalid circuit: %v", n, err)
		}
		a.ResetStats()
		b.ResetStats()
		gIn := make([]bool, len(c.GarblerInputs))
		eIn := make([]bool, len(c.EvalInputs))
		priv := make([]bool, c.NumPrivate)
		go func() {
			_, err := RunGarbler(a, snd, c, gIn, priv)
			ch <- res{err}
		}()
		if _, err := RunEvaluator(b, rcv, c, eIn); err != nil {
			t.Fatalf("n=%d: RunEvaluator: %v", n, err)
		}
		if r := <-ch; r.err != nil {
			t.Fatalf("n=%d: RunGarbler: %v", n, r.err)
		}
		if got, want := a.Stats().TotalBytes(), DimsOf(c).MessageCost(); got != want {
			t.Fatalf("n=%d: protocol moved %d bytes, MessageCost predicts %d", n, got, want)
		}
	}
}
