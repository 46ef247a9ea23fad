package gc

import (
	"fmt"
	"math/rand"
	"testing"

	"secyan/internal/ot"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// correctionGadget exercises every gate kind, with garbler-private bits
// feeding XORG and ANDG gates at several depths so flips have to
// propagate through XOR/NOT/AND chains, two keyed payloads — one whole
// byte, one ragged — and two selects — one before any evaluator output,
// one between two keyed payloads — on wires whose meaning private bits
// flip.
func correctionGadget(b *Builder) {
	g := b.GarblerInputWord(8)
	e := b.EvalInputWord(8)
	p := b.PrivateWord(8)
	q := b.PrivateWord(8)
	eq := b.EqPrivate(e, p)           // XORG into an AND tree
	sel := andgWordBit(b, q, eq)      // ANDG off a deep wire
	sum := b.Add(b.XORGWord(e, p), g) // XORG into ripple-carry ANDs
	prod := b.Mul(sum, b.Add(sel, e))
	out := b.Add(prod, b.MuxWord(eq, sum, sel))
	b.OutputSelect(eq, append(q[:4:4], p[:5]...), append(p[:3:3], q[2:8]...))
	b.OutputWordToEval(out)
	b.OutputWordToGarbler(b.Sub(out, g))
	b.OutputToEval(b.Not(eq))
	b.OutputPayloadIf(eq, q)
	b.OutputSelect(sel[1], p, q)
	b.OutputPayloadIf(b.Not(eq), append(p[:5:5], q[:6]...))
}

func correctionCircuit() *Circuit { return slotted(correctionGadget, 1) }

func randBits(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(2) == 1
	}
	return out
}

// TestAppliedCorrectionsMatchDirectGarble pins the core precomputation
// property: garbling with zero privates over evaluator-input zero labels
// q and then applying the true private bits and input flips d yields
// material byte-identical to a direct garble with the same randomness
// over zero labels q ⊕ d·Δ — the whole message (tables, labels, decode
// bits), the evaluator-input labels and the garbler-output permute bits —
// at one slot and across batches, at workers 1 and 4, with and without
// flips. This is what makes the pre-garbled online path emit the exact
// bytes RunGarbler would over a pooled label batch.
func TestAppliedCorrectionsMatchDirectGarble(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 19} {
		c := slotted(correctionGadget, n)
		nE := c.Slots * len(c.EvalInputs)
		for trial := 0; trial < 10; trial++ {
			priv := randBits(rng, c.Slots*c.NumPrivate)
			seed := prf.Seed{byte(trial), 0x5e}
			q := make([]prf.Block, nE)
			for j := range q {
				rng.Read(q[j][:])
			}
			for _, flipped := range []bool{false, true} {
				var flips []byte
				x0 := append([]prf.Block(nil), q...)
				if flipped {
					flips = make([]byte, (nE+7)/8)
					rng.Read(flips)
					for j := range x0 {
						if getBit(flips, j) {
							prf.XORBlock(&x0[j], x0[j], testKey.delta)
						}
					}
				}
				direct := garble(c, testKey, prf.NewPRG(seed), priv, false, x0)
				for _, workers := range []int{1, 4} {
					off := atWorkers(workers, func() *garbled {
						off := garble(c, testKey, prf.NewPRG(seed), make([]bool, len(priv)), true, append([]prf.Block(nil), q...))
						applyPrivate(c, off, priv, flips)
						return off
					})
					sameGarbling(t, fmt.Sprintf("%d slots, trial %d, flips %v, workers=%d", n, trial, flipped, workers), off, direct)
				}
			}
		}
	}
}

// run2PCPre mirrors run2PC but fills both OT pools with the label batch
// and garbles ahead of time over it on the garbler side, so the online
// run takes the pooled path the pre-garbled material serves.
func run2PCPre(t testing.TB, c *Circuit, garblerBits, evalBits, priv []bool) ([]bool, []bool) {
	t.Helper()
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()

	nE := c.Slots * len(c.EvalInputs)
	type gres struct {
		out []bool
		err error
	}
	ch := make(chan gres, 1)
	go func() {
		snd, err := ot.NewSender(a)
		var batch *ot.DeltaBatch
		if err == nil {
			batch, err = snd.FillDelta(nE)
		}
		var pg *PreGarbled
		if err == nil {
			pg, err = GarbleOver(c, snd, batch) // offline: before inputs exist
		}
		if err != nil {
			ch <- gres{nil, err}
			return
		}
		if !pg.Serves(snd) {
			ch <- gres{nil, fmt.Errorf("material garbled over the pool head does not serve it")}
			return
		}
		out, err := pg.RunOnline(a, snd, garblerBits, priv)
		ch <- gres{out, err}
	}()
	rcv, err := ot.NewReceiver(b)
	if err == nil {
		err = rcv.FillDelta(nE)
	}
	if err != nil {
		t.Fatalf("ot receiver: %v", err)
	}
	evalOut, err := RunEvaluator(b, rcv, c, evalBits)
	if err != nil {
		t.Fatalf("RunEvaluator: %v", err)
	}
	g := <-ch
	if g.err != nil {
		t.Fatalf("RunOnline: %v", g.err)
	}
	return evalOut, g.out
}

// TestPreGarbledProtocolMatchesPlain runs the pre-garbled online protocol
// end to end and compares both parties' outputs against the plaintext
// reference evaluation.
func TestPreGarbledProtocolMatchesPlain(t *testing.T) {
	c := correctionCircuit()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		gBits, eBits, priv := randomInputs(rng, c)

		wantEval, wantGarb, err := c.EvalPlain(gBits, eBits, priv)
		if err != nil {
			t.Fatalf("EvalPlain: %v", err)
		}
		gotEval, gotGarb := run2PCPre(t, c, gBits, eBits, priv)
		for i := range wantEval {
			if gotEval[i] != wantEval[i] {
				t.Fatalf("trial %d: evaluator output bit %d = %v, want %v", trial, i, gotEval[i], wantEval[i])
			}
		}
		for i := range wantGarb {
			if gotGarb[i] != wantGarb[i] {
				t.Fatalf("trial %d: garbler output bit %d = %v, want %v", trial, i, gotGarb[i], wantGarb[i])
			}
		}
	}
}

// TestPreGarbledSingleUse pins that consumed material cannot be replayed:
// applyPrivate mutates the tables, so a second run would leak or corrupt.
func TestPreGarbledSingleUse(t *testing.T) {
	c := correctionCircuit()
	pg := GarbleAhead(c)
	pg.gb = nil // simulate consumption without a network peer
	if _, err := pg.RunOnline(nil, nil, make([]bool, len(c.GarblerInputs)), make([]bool, c.NumPrivate)); err == nil {
		t.Fatal("RunOnline accepted already-consumed material")
	}
}

// TestSameShape covers the dimension fingerprint used by the session
// queues to match pre-built circuits to runtime ones.
func TestSameShape(t *testing.T) {
	a := correctionCircuit()
	b := correctionCircuit()
	if !SameShape(a, b) {
		t.Fatal("identical construction must have the same shape")
	}
	nb := NewBuilder()
	w := nb.EvalInputWord(8)
	nb.OutputWordToEval(w)
	if SameShape(a, nb.Build()) {
		t.Fatal("different circuits must not share a shape")
	}
	// The same slot repeated a different number of times is a different
	// circuit: a queue holding one must not be consumed for the other.
	if !SameShape(slotted(correctionGadget, 5), slotted(correctionGadget, 5)) {
		t.Fatal("equal slot counts must share a shape")
	}
	for _, n := range []int{0, 2, 6} {
		if SameShape(slotted(correctionGadget, n), slotted(correctionGadget, 5)) {
			t.Fatalf("%d and 5 repetitions of one slot must not share a shape", n)
		}
	}
}
