package gc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"secyan/internal/obs"
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
		if batch.Garbled != pg {
			ch <- gres{nil, fmt.Errorf("GarbleOver left no material on its batch")}
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

// TestServedMatchesShape pins runGarbler's one match rule: material on
// the label batch the OT opens is served when it has the circuit's shape
// and otherwise dropped for a fresh garble over the same rows; a direct
// batch and GarbleAhead's material are misses. Every case clears the
// batch, counts one hit or miss, and matches EvalPlain.
func TestServedMatchesShape(t *testing.T) {
	gadget := func(width int) func(*Builder) {
		return func(b *Builder) {
			sum := b.Add(b.GarblerInputWord(width), b.EvalInputWord(width))
			b.OutputWordToEval(sum)
			b.OutputWordToGarbler(b.XORGWord(sum, b.PrivateWord(width)))
		}
	}
	// 8 inputs × 9 slots and 24 inputs × 3 slots: one label count, so
	// either opens the other's pooled batch.
	c, other := slotted(gadget(8), 9), slotted(gadget(24), 3)
	m := c.Slots * len(c.EvalInputs)
	if m != other.Slots*len(other.EvalInputs) || SameShape(c, other) {
		t.Fatal("the two circuits must differ in shape over one label count")
	}
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name    string
		pooled  bool
		staged  *Circuit // garbled over the pooled batch; nil for none
		ahead   bool     // run GarbleAhead(c) through RunOnline
		wantHit bool
	}{
		{"own shape", true, c, false, true},
		{"other shape", true, other, false, false},
		{"direct batch", false, nil, false, false},
		{"garbled ahead", true, nil, true, false},
	} {
		gBits, eBits, priv := randomInputs(rng, c)
		wantEval, wantGarb, err := c.EvalPlain(gBits, eBits, priv)
		if err != nil {
			t.Fatal(err)
		}
		obs.Enable()
		hits0, misses0 := mPreCircHits.Value(), mPreCircMisses.Value()
		a, b := transport.Pair()
		ch := make(chan error, 1)
		var gotGarb []bool
		go func() {
			ch <- func() error {
				snd, err := ot.NewSender(a)
				if err != nil {
					return err
				}
				var batch *ot.DeltaBatch
				if tc.pooled {
					if batch, err = snd.FillDelta(m); err != nil {
						return err
					}
				}
				if tc.staged != nil {
					if _, err := GarbleOver(tc.staged, snd, batch); err != nil {
						return err
					}
				}
				if tc.ahead {
					pg := GarbleAhead(c)
					if gotGarb, err = pg.RunOnline(a, snd, gBits, priv); err == nil {
						if _, again := pg.RunOnline(a, snd, gBits, priv); again == nil {
							return fmt.Errorf("RunOnline accepted consumed material")
						}
					}
				} else {
					gotGarb, err = RunGarbler(a, snd, c, gBits, priv)
				}
				if err == nil && batch != nil && batch.Garbled != nil {
					return fmt.Errorf("the opened batch still carries material")
				}
				return err
			}()
		}()
		rcv, err := ot.NewReceiver(b)
		if err == nil && tc.pooled {
			err = rcv.FillDelta(m)
		}
		var gotEval []bool
		if err == nil {
			gotEval, err = RunEvaluator(b, rcv, c, eBits)
		}
		if err != nil {
			b.Close() // unblock the garbler
		}
		gerr := <-ch
		a.Close()
		b.Close()
		hits, misses := mPreCircHits.Value()-hits0, mPreCircMisses.Value()-misses0
		obs.Disable()
		if err != nil || gerr != nil {
			t.Fatalf("%s: evaluator %v, garbler %v", tc.name, err, gerr)
		}
		if !reflect.DeepEqual(gotEval, wantEval) || !reflect.DeepEqual(gotGarb, wantGarb) {
			t.Fatalf("%s: outputs differ from EvalPlain", tc.name)
		}
		if hits+misses != 1 || tc.wantHit != (hits == 1) {
			t.Fatalf("%s: %d hits, %d misses; want a hit: %v", tc.name, hits, misses, tc.wantHit)
		}
	}
}

// TestSameShape covers the dimension fingerprint runGarbler matches the
// material on a label batch against the circuit it opens for.
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
	// circuit: material garbled for one must not serve the other.
	if !SameShape(slotted(correctionGadget, 5), slotted(correctionGadget, 5)) {
		t.Fatal("equal slot counts must share a shape")
	}
	for _, n := range []int{0, 2, 6} {
		if SameShape(slotted(correctionGadget, n), slotted(correctionGadget, 5)) {
			t.Fatalf("%d and 5 repetitions of one slot must not share a shape", n)
		}
	}
}
