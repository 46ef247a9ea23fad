package gc

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"secyan/internal/ot"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// equivCircuit builds a single-slot circuit with real AND depth
// (multiplication, division, comparisons) plus private-bit gates: the
// monolithic shape of the merge chain and the ratio circuit.
func equivCircuit() *Circuit {
	b := NewBuilder()
	x := b.GarblerInputWord(32)
	y := b.EvalInputWord(32)
	ps := b.PrivateWord(32)

	prod := b.Mul(x, y)
	masked := b.XORGWord(prod, ps)
	quot, rem := b.DivMod(masked, y)
	gt := b.GreaterThan(quot, rem)
	b.OutputWordToEval(quot)
	b.OutputToEval(gt)
	b.OutputWordToGarbler(rem)
	return b.Build()
}

// randomGadget returns a builder routine that emits the same
// pseudo-random gadget every time it is called: a few word operations
// over garbler inputs, evaluator inputs and private words, with outputs
// to both parties, a keyed payload and a select. Calling it n times in one
// builder and calling it once before BuildSlots(n) must describe the same
// computation.
func randomGadget(seed int64) func(b *Builder) {
	return func(b *Builder) {
		rng := rand.New(rand.NewSource(seed))
		w := 2 + rng.Intn(7)
		pool := []Word{b.GarblerInputWord(w), b.EvalInputWord(w), b.XORGWord(b.EvalInputWord(w), b.PrivateWord(w))}
		pick := func() Word { return pool[rng.Intn(len(pool))] }
		for i, ops := 0, 3+rng.Intn(6); i < ops; i++ {
			x, y := pick(), pick()
			var z Word
			switch rng.Intn(8) {
			case 0:
				z = b.Add(x, y)
			case 1:
				z = b.Sub(x, y)
			case 2:
				z = b.Mul(x, y)
			case 3:
				z = b.MuxWord(b.GreaterThan(x, y), x, y)
			case 4:
				z = b.AddPrivate(x, b.PrivateWord(w))
			case 5:
				z = andgWordBit(b, b.PrivateWord(w), b.Eq(x, y))
			case 6:
				z = xorWord(b, x, b.ConstWord(rng.Uint64(), w))
			case 7:
				z = b.ZeroExtend(Word{b.NonZero(x)}, w)
			}
			pool = append(pool, z)
		}
		b.OutputWordToEval(pool[len(pool)-1])
		b.OutputToEval(b.EqPrivate(pick(), b.PrivateWord(w)))
		b.OutputPayloadIf(pick()[0], b.PrivateWord(1+rng.Intn(12)))
		sw := 1 + rng.Intn(20)
		b.OutputSelect(pick()[rng.Intn(w)], b.PrivateWord(sw), b.PrivateWord(sw))
		b.OutputWordToGarbler(pool[len(pool)-2])
	}
}

// slotted builds gadget as one slot repeated n times; looped calls it n
// times in one builder, the way every operator circuit was built before
// circuits had slots.
func slotted(gadget func(*Builder), n int) *Circuit {
	b := NewBuilder()
	gadget(b)
	return b.BuildSlots(n)
}

func looped(gadget func(*Builder), n int) *Circuit {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		gadget(b)
	}
	return b.Build()
}

// randomInputs draws slot-major inputs for c.
func randomInputs(rng *rand.Rand, c *Circuit) (gbits, ebits, priv []bool) {
	return randBits(rng, c.Slots*len(c.GarblerInputs)),
		randBits(rng, c.Slots*len(c.EvalInputs)),
		randBits(rng, c.Slots*c.NumPrivate)
}

// testKey is the key the kernel tests garble under: a fixed Δ with
// lsb(Δ) = 1 and tweak base 0, what a session's first circuit gets.
var testKey = circuitKey{delta: prf.Block{0x3c, 0xa5, 7: 0x81, 15: 0x0f}}

// sameGarbling fails unless two garblings are byte-identical in
// everything the garbler keeps.
func sameGarbling(t *testing.T, what string, got, want *garbled) {
	t.Helper()
	if got.delta != want.delta {
		t.Fatalf("%s: delta differs", what)
	}
	if !bytes.Equal(got.msg, want.msg) {
		t.Fatalf("%s: message bytes differ", what)
	}
	if !reflect.DeepEqual(got.evalIn, want.evalIn) {
		t.Fatalf("%s: evaluator input labels differ", what)
	}
	if !bytes.Equal(got.outPerm, want.outPerm) {
		t.Fatalf("%s: garbler-output permute bits differ", what)
	}
	if !bytes.Equal(got.perm, want.perm) {
		t.Fatalf("%s: retained gate permute bits differ", what)
	}
	if !reflect.DeepEqual(got.corr, want.corr) {
		t.Fatalf("%s: retained colour-0 label halves differ", what)
	}
	if !bytes.Equal(got.payFlip, want.payFlip) {
		t.Fatalf("%s: retained payload pad corrections differ", what)
	}
}

// activeLabels selects the evaluator's active input labels from a
// garbling, flat, as the label OT delivers them.
func activeLabels(gb *garbled, ebits []bool) []byte {
	out := make([]prf.Block, len(ebits))
	for i, v := range ebits {
		out[i] = gb.evalIn[i]
		if v {
			out[i] = prf.XORBlockValue(out[i], gb.delta)
		}
	}
	return prf.BlockBytes(out)
}

// activate turns the garbler-input zero labels of gb.msg into active
// ones, as finishGarbler does before sending.
func activate(c *Circuit, gb *garbled, gbits []bool) []byte {
	labelsOff, decodeOff, _, _ := c.msgLayout()
	msg := append([]byte(nil), gb.msg...)
	gIn := prf.BlocksOf(msg[labelsOff+16 : decodeOff])
	for i, v := range gbits {
		if v {
			prf.XORBlock(&gIn[i], gIn[i], gb.delta)
		}
	}
	return msg
}

var slotCounts = []int{1, 2, 7, 8, 9, 64, 65}

// TestSlotCircuitEqualsLoopedGadget is the contract of slot replication:
// for random gadgets and slot counts around the lane width, the
// slot-built circuit and the same gadget looped n times in one builder
// have equal Dims, equal plaintext semantics, byte-identical garblings
// under one seed (tweaks, table offsets and label order all coincide),
// and equal 2PC outputs on both the direct and the pre-garbled path.
func TestSlotCircuitEqualsLoopedGadget(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		gadget := randomGadget(seed)
		for _, n := range slotCounts {
			name := fmt.Sprintf("gadget %d × %d", seed, n)
			sc, lc := slotted(gadget, n), looped(gadget, n)
			if err := sc.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if sc.Slots != n || lc.Slots != 1 {
				t.Fatalf("%s: slots %d and %d", name, sc.Slots, lc.Slots)
			}
			if got, want := DimsOf(sc), DimsOf(lc); got != want {
				t.Fatalf("%s: slot-built dims %+v, looped %+v", name, got, want)
			}
			// Only NOT(const0) is shared between the looped copies.
			if d := sc.NumGates() - lc.NumGates(); d < 0 || d > n-1 {
				t.Fatalf("%s: %d gates slot-built, %d looped", name, sc.NumGates(), lc.NumGates())
			}

			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			gbits, ebits, priv := randomInputs(rng, sc)
			wantE, wantG, err := lc.EvalPlain(gbits, ebits, priv)
			if err != nil {
				t.Fatalf("%s: looped EvalPlain: %v", name, err)
			}
			gotE, gotG, err := sc.EvalPlain(gbits, ebits, priv)
			if err != nil {
				t.Fatalf("%s: slot EvalPlain: %v", name, err)
			}
			if !reflect.DeepEqual(gotE, wantE) || !reflect.DeepEqual(gotG, wantG) {
				t.Fatalf("%s: EvalPlain differs between slot-built and looped", name)
			}

			gseed := prf.Seed{byte(seed), byte(n), 0x51}
			sameGarbling(t, name, garble(sc, testKey, prf.NewPRG(gseed), priv, false, nil), garble(lc, testKey, prf.NewPRG(gseed), priv, false, nil))

			e, g := run2PC(t, sc, gbits, ebits, priv)
			if !reflect.DeepEqual(e, wantE) || !reflect.DeepEqual(g, wantG) {
				t.Fatalf("%s: direct 2PC differs from plaintext", name)
			}
			e, g = run2PCPre(t, sc, gbits, ebits, priv)
			if !reflect.DeepEqual(e, wantE) || !reflect.DeepEqual(g, wantG) {
				t.Fatalf("%s: pre-garbled 2PC differs from plaintext", name)
			}
		}
	}
}

// atWorkers runs f with the worker count pinned.
func atWorkers[T any](workers int, f func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	return f()
}

// equivalenceCircuits are the shapes the worker-invariance tests cover:
// the deep single-slot circuit and a 65-slot gadget (nine batches, the
// last a single lane).
func equivalenceCircuits() map[string]*Circuit {
	return map[string]*Circuit{"deep×1": equivCircuit(), "gadget×65": slotted(correctionGadget, 65)}
}

// TestGarbleByteIdenticalAcrossWorkers is the strongest form of the
// transcript-determinism guarantee: with a fixed PRG seed, everything
// the garbler keeps — Δ, the whole message (tables, labels, decode
// bits), the evaluator-input labels, the permute bits — must be
// byte-for-byte identical at any worker count.
func TestGarbleByteIdenticalAcrossWorkers(t *testing.T) {
	for name, c := range equivalenceCircuits() {
		_, _, priv := randomInputs(rand.New(rand.NewSource(5)), c)
		seed := prf.Seed{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
		for _, keep := range []bool{false, true} {
			garbleAt := func(workers int) *garbled {
				return atWorkers(workers, func() *garbled { return garble(c, testKey, prf.NewPRG(seed), priv, keep, nil) })
			}
			ref := garbleAt(1)
			for _, workers := range []int{2, 4} {
				sameGarbling(t, fmt.Sprintf("%s workers=%d", name, workers), garbleAt(workers), ref)
			}
		}
	}
}

// TestEvaluateByteIdenticalAcrossWorkers drives the evaluator over the
// same garbled message at several worker counts and requires the same
// output bits and the same masked garbler-output bytes as the serial
// run — which must in turn decode to the plaintext result.
func TestEvaluateByteIdenticalAcrossWorkers(t *testing.T) {
	for name, c := range equivalenceCircuits() {
		gbits, ebits, priv := randomInputs(rand.New(rand.NewSource(6)), c)
		gb := garble(c, testKey, prf.NewPRG(prf.Seed{42}), priv, false, nil)
		msg, labels := activate(c, gb, gbits), activeLabels(gb, ebits)

		type result struct {
			out    []bool
			masked []byte
		}
		evalAt := func(workers int) result {
			return atWorkers(workers, func() result {
				out, masked, err := evaluate(c, 0, 0, msg, labels)
				if err != nil {
					t.Fatalf("%s workers=%d: evaluate: %v", name, workers, err)
				}
				return result{out, masked}
			})
		}
		ref := evalAt(1)
		wantE, wantG, err := c.EvalPlain(gbits, ebits, priv)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.out, wantE) {
			t.Fatalf("%s: serial evaluation disagrees with plaintext", name)
		}
		for i, want := range wantG {
			if got := getBit(ref.masked, i) != getBit(gb.outPerm, i); got != want {
				t.Fatalf("%s: garbler output bit %d = %v, want %v", name, i, got, want)
			}
		}
		for _, workers := range []int{2, 4} {
			if got := evalAt(workers); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s workers=%d: evaluation differs from serial run", name, workers)
			}
		}
	}
}

// TestProtocol2PCStatsInvariantAcrossWorkers runs the full garbled
// protocol (garble, OT for evaluator inputs, evaluate, output exchange)
// at worker counts 1 and 4 and requires identical outputs and identical
// transport.Stats on both endpoints.
func TestProtocol2PCStatsInvariantAcrossWorkers(t *testing.T) {
	for name, c := range equivalenceCircuits() {
		gbits, ebits, priv := randomInputs(rand.New(rand.NewSource(7)), c)
		wantEval, wantGarbler, err := c.EvalPlain(gbits, ebits, priv)
		if err != nil {
			t.Fatal(err)
		}

		type result struct {
			evalOut, garblerOut []bool
			aStats, bStats      transport.Stats
		}
		runAt := func(workers int) result {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			a, b := transport.Pair()
			defer a.Close()
			defer b.Close()
			type gres struct {
				out []bool
				err error
			}
			ch := make(chan gres, 1)
			go func() {
				snd, err := ot.NewSender(a)
				if err != nil {
					ch <- gres{nil, err}
					return
				}
				out, err := RunGarbler(a, snd, c, gbits, priv)
				ch <- gres{out, err}
			}()
			rcv, err := ot.NewReceiver(b)
			if err != nil {
				t.Fatalf("%s workers=%d: ot receiver: %v", name, workers, err)
			}
			evalOut, err := RunEvaluator(b, rcv, c, ebits)
			if err != nil {
				t.Fatalf("%s workers=%d: RunEvaluator: %v", name, workers, err)
			}
			g := <-ch
			if g.err != nil {
				t.Fatalf("%s workers=%d: RunGarbler: %v", name, workers, g.err)
			}
			return result{evalOut, g.out, a.Stats(), b.Stats()}
		}

		ref := runAt(1)
		if !reflect.DeepEqual(ref.evalOut, wantEval) || !reflect.DeepEqual(ref.garblerOut, wantGarbler) {
			t.Fatalf("%s: serial run disagrees with plaintext reference", name)
		}
		got := runAt(4)
		if !reflect.DeepEqual(got.evalOut, ref.evalOut) || !reflect.DeepEqual(got.garblerOut, ref.garblerOut) {
			t.Fatalf("%s workers=4: outputs differ from serial run", name)
		}
		if got.aStats != ref.aStats {
			t.Fatalf("%s workers=4: garbler stats %+v, serial %+v", name, got.aStats, ref.aStats)
		}
		if got.bStats != ref.bStats {
			t.Fatalf("%s workers=4: evaluator stats %+v, serial %+v", name, got.bStats, ref.bStats)
		}
	}
}

// allocated returns the bytes f allocates, with the pool pinned to one
// worker so that exactly one scratch is in play.
func allocated(f func()) int64 {
	return atWorkers(1, func() int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	})
}

// TestKernelAllocationIndependentOfSlots pins the memory contract of the
// slot kernel: garbling allocates its message (with room for the label
// OT's tail), the evaluator-input labels the OTs need, the packed
// permute bits and, ahead of time, two colour-0 label halves per AND,
// plus one lanes × slot-wires scratch per worker chunk — nothing else that grows
// with the slot count. Evaluating allocates its output bits and scratch
// only: the message is read where it was received.
func TestKernelAllocationIndependentOfSlots(t *testing.T) {
	const slack = 64 << 10 // size-class and page rounding of the few large objects, PRG state, closures
	for _, n := range []int{64, 2048} {
		c := slotted(correctionGadget, n)
		gbits, ebits, priv := randomInputs(rand.New(rand.NewSource(8)), c)
		scratch := int64(16 * c.stride() * c.NumWires)

		var gb *garbled
		got := allocated(func() { gb = garble(c, testKey, prf.NewPRG(prf.Seed{7}), priv, true, nil) })
		kept := int64(cap(gb.msg) + 16*len(gb.evalIn) + len(gb.outPerm) + len(gb.perm) + 8*len(gb.corr) + len(gb.payFlip))
		if limit := kept + scratch + slack; got > limit {
			t.Fatalf("garble, %d slots: allocated %d bytes, want ≤ %d (kept %d + scratch %d)", n, got, limit, kept, scratch)
		}

		msg, labels := activate(c, gb, gbits), activeLabels(gb, ebits)
		var out []bool
		var masked []byte
		got = allocated(func() {
			var err error
			if out, masked, err = evaluate(c, 0, 0, msg, labels); err != nil {
				t.Fatal(err)
			}
		})
		if limit := int64(len(out)+len(masked)) + scratch + slack; got > limit {
			t.Fatalf("evaluate, %d slots: allocated %d bytes, want ≤ %d (message is %d)", n, got, limit, len(msg))
		}

		got = allocated(func() { applyPrivate(c, gb, priv, nil) })
		if limit := int64(c.NumWires) + slack; got > limit {
			t.Fatalf("applyPrivate, %d slots: allocated %d bytes, want ≤ %d", n, got, limit)
		}
	}
}

// benchTree is a tree of 32-bit multipliers: wide, deep and single-slot.
func benchTree() *Circuit {
	bd := NewBuilder()
	words := make([]Word, 16)
	for i := range words {
		words[i] = bd.GarblerInputWord(32)
	}
	for len(words) > 1 {
		var next []Word
		for i := 0; i+1 < len(words); i += 2 {
			next = append(next, bd.Mul(words[i], words[i+1]))
		}
		words = next
	}
	bd.OutputWordToEval(words[0])
	return bd.Build()
}

// benchSlots is the replicated shape of the operator circuits: one
// 32-bit multiply-and-mask gadget per slot.
func benchSlots() *Circuit {
	bd := NewBuilder()
	x := bd.AddPrivate(bd.EvalInputWord(32), bd.PrivateWord(32))
	y := bd.AddPrivate(bd.EvalInputWord(32), bd.PrivateWord(32))
	bd.OutputWordToEval(bd.AddPrivate(bd.Mul(x, y), bd.PrivateWord(32)))
	return bd.BuildSlots(256)
}

// BenchmarkGarbleWorkers measures three-halves garbling of a single-slot
// tree and of a 256-slot gadget at pinned worker counts.
func BenchmarkGarbleWorkers(b *testing.B) {
	for name, c := range map[string]*Circuit{"tree": benchTree(), "slots": benchSlots()} {
		priv := make([]bool, c.Slots*c.NumPrivate)
		seed := prf.Seed{9}
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				b.ReportAllocs()
				b.ReportMetric(float64(c.Slots*c.NumAnd), "and_gates")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = garble(c, testKey, prf.NewPRG(seed), priv, false, nil)
				}
			})
		}
	}
}

// BenchmarkEvaluateWorkers measures the evaluator's half of the same
// circuits at pinned worker counts.
func BenchmarkEvaluateWorkers(b *testing.B) {
	for name, c := range map[string]*Circuit{"tree": benchTree(), "slots": benchSlots()} {
		priv := make([]bool, c.Slots*c.NumPrivate)
		gb := garble(c, testKey, prf.NewPRG(prf.Seed{9}), priv, false, nil)
		labels := activeLabels(gb, make([]bool, len(gb.evalIn)))
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := evaluate(c, 0, 0, gb.msg, labels); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
