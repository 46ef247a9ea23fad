package gc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"secyan/internal/ot"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// run2PC executes c with both parties over an in-memory transport and
// returns (evaluator outputs, garbler outputs).
func run2PC(t testing.TB, c *Circuit, garblerBits, evalBits []bool, privBits ...[]bool) ([]bool, []bool) {
	var pb []bool
	if len(privBits) > 0 {
		pb = privBits[0]
	}
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatalf("invalid circuit: %v", err)
	}
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
		out, err := RunGarbler(a, snd, c, garblerBits, pb)
		ch <- gres{out, err}
	}()
	rcv, err := ot.NewReceiver(b)
	if err != nil {
		t.Fatalf("ot receiver: %v", err)
	}
	evalOut, err := RunEvaluator(b, rcv, c, evalBits)
	if err != nil {
		t.Fatalf("RunEvaluator: %v", err)
	}
	g := <-ch
	if g.err != nil {
		t.Fatalf("RunGarbler: %v", g.err)
	}
	return evalOut, g.out
}

// TestGates2PCExhaustive checks every gate type on all input combinations
// through the real garbled protocol, with outputs to both parties.
func TestGates2PCExhaustive(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInput()
	y := b.EvalInput()
	xor := b.XOR(x, y)
	and := b.AND(x, y)
	or := b.OR(x, y)
	nx := b.Not(x)
	mux := b.Mux(x, y, nx) // x ? y : !x
	for _, w := range []Wire{xor, and, or, nx, mux} {
		b.OutputToEval(w)
		b.OutputToGarbler(w)
	}
	c := b.Build()

	for _, xv := range []bool{false, true} {
		for _, yv := range []bool{false, true} {
			// mux: x ? y : !x → if x then y else true
			mux := yv
			if !xv {
				mux = true
			}
			want := []bool{xv != yv, xv && yv, xv || yv, !xv, mux}
			eOut, gOut := run2PC(t, c, []bool{xv}, []bool{yv})
			for i := range want {
				if eOut[i] != want[i] {
					t.Errorf("x=%v y=%v eval output %d: got %v want %v", xv, yv, i, eOut[i], want[i])
				}
				if gOut[i] != want[i] {
					t.Errorf("x=%v y=%v garbler output %d: got %v want %v", xv, yv, i, gOut[i], want[i])
				}
			}
		}
	}
}

func TestConstants2PC(t *testing.T) {
	b := NewBuilder()
	w := b.ConstWord(0xCAFE, 16)
	b.OutputWordToEval(w)
	b.OutputWordToGarbler(w)
	c := b.Build()
	eOut, gOut := run2PC(t, c, nil, nil)
	if UintOfBits(eOut) != 0xCAFE || UintOfBits(gOut) != 0xCAFE {
		t.Fatalf("constants: eval=%x garbler=%x", UintOfBits(eOut), UintOfBits(gOut))
	}
}

// plainWordOp builds a circuit applying op to two 32-bit inputs and checks
// the plain evaluation against a reference function over many random pairs.
func checkWordOpPlain(t *testing.T, name string, build func(b *Builder, x, y Word) Word, ref func(x, y uint64) uint64) {
	t.Helper()
	const n = 32
	b := NewBuilder()
	x := b.GarblerInputWord(n)
	y := b.EvalInputWord(n)
	b.OutputWordToEval(build(b, x, y))
	c := b.Build()
	if err := c.Validate(); err != nil {
		t.Fatalf("%s: invalid circuit: %v", name, err)
	}
	mask := uint64(1)<<n - 1
	f := func(xv, yv uint64) bool {
		xv &= mask
		yv &= mask
		out, _, err := c.EvalPlain(bitsOfUint(xv, n), bitsOfUint(yv, n), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return UintOfBits(out) == ref(xv, yv)&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	// Edge cases.
	for _, xv := range []uint64{0, 1, mask, mask - 1, 1 << 31} {
		for _, yv := range []uint64{0, 1, mask, 3} {
			if !f(xv, yv) {
				t.Errorf("%s: edge case x=%d y=%d failed", name, xv, yv)
			}
		}
	}
}

func TestAdd(t *testing.T) {
	checkWordOpPlain(t, "add", func(b *Builder, x, y Word) Word { return b.Add(x, y) },
		func(x, y uint64) uint64 { return x + y })
}

func TestSub(t *testing.T) {
	checkWordOpPlain(t, "sub", func(b *Builder, x, y Word) Word { return b.Sub(x, y) },
		func(x, y uint64) uint64 { return x - y })
}

func TestMul(t *testing.T) {
	checkWordOpPlain(t, "mul", func(b *Builder, x, y Word) Word { return b.Mul(x, y) },
		func(x, y uint64) uint64 { return x * y })
}

// TestMulGateCount pins the multiplier's size at every width up to 64
// and its value against uint64 arithmetic: partial product i has i known
// zero low bits, so it is added at width n−i — n(n+1)/2 partial-product
// ANDs plus (n−1)(n−2)/2 adder ANDs (993 at ℓ = 32, where adding every
// partial product at full width spent 1 489).
func TestMulGateCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 64; n++ {
		b := NewBuilder()
		x := b.GarblerInputWord(n)
		y := b.EvalInputWord(n)
		b.OutputWordToEval(b.Mul(x, y))
		c := b.Build()
		if want := n*(n+1)/2 + (n-1)*(n-2)/2; c.NumAnd != want || c.NumAndG != 0 {
			t.Fatalf("n=%d: %d AND + %d ANDG gates, want %d AND", n, c.NumAnd, c.NumAndG, want)
		}
		mask := ^uint64(0) >> uint(64-n)
		for i := 0; i < 20; i++ {
			xv, yv := rng.Uint64()&mask, rng.Uint64()&mask
			out, _, err := c.EvalPlain(bitsOfUint(xv, n), bitsOfUint(yv, n), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := UintOfBits(out); got != xv*yv&mask {
				t.Fatalf("n=%d: %d·%d = %d, want %d", n, xv, yv, got, xv*yv&mask)
			}
		}
	}
}

// TestAddPrivateGateCount pins AddPrivate's size at every width up to 64,
// for a full evaluator word and for a zero-extended bit (the π¹ output
// shape, ZeroExtend(bit) + mask), and its value against uint64
// arithmetic: a bit whose wire operand or carry in is the constant-false
// wire carries out through one ANDG, so a full word spends n−2 ANDs and
// one ANDG, a zero-extended bit n−1 ANDGs and no AND.
func TestAddPrivateGateCount(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for n := 1; n <= 64; n++ {
		for _, ext := range []bool{false, true} {
			b := NewBuilder()
			x := b.EvalInputWord(n)
			if ext {
				x = b.ZeroExtend(x[:1], n)
			}
			b.OutputWordToEval(b.AddPrivate(x, b.PrivateWord(n)))
			c := b.Build()
			wantAnd, wantAndG := max(n-2, 0), min(n-1, 1)
			if ext {
				wantAnd, wantAndG = 0, n-1
			}
			if c.NumAnd != wantAnd || c.NumAndG != wantAndG {
				t.Fatalf("n=%d ext=%v: %d AND + %d ANDG gates, want %d + %d", n, ext, c.NumAnd, c.NumAndG, wantAnd, wantAndG)
			}
			mask := ^uint64(0) >> uint(64-n)
			for i := 0; i < 20; i++ {
				xv, pv := rng.Uint64()&mask, rng.Uint64()&mask
				in := xv
				if ext {
					in &= 1
				}
				out, _, err := c.EvalPlain(nil, bitsOfUint(xv, n), bitsOfUint(pv, n))
				if err != nil {
					t.Fatal(err)
				}
				if got := UintOfBits(out); got != (in+pv)&mask {
					t.Fatalf("n=%d ext=%v: %d+%d = %d, want %d", n, ext, in, pv, got, (in+pv)&mask)
				}
			}
		}
	}
}

// TestOutputPayloadIf2PC runs a keyed payload through the real protocol,
// direct and pre-garbled, on both values of its keying wire and a
// private bit that flips the wire's meaning: the evaluator reads the
// payload exactly when the wire is 1, and zeros otherwise. Each payload
// costs its ⌈bits/8⌉ bytes of ciphertext on the wire and no gate.
func TestOutputPayloadIf2PC(t *testing.T) {
	const bits = 21
	b := NewBuilder()
	key := b.XORG(b.EvalInput(), b.PrivateBit())
	pay := b.PrivateWord(bits)
	b.OutputPayloadIf(key, pay)
	c := b.BuildSlots(3)
	if c.TableBlocks() != 0 || DimsOf(c).PayloadBytes != 3*((bits+7)/8) {
		t.Fatalf("payload costs %d table blocks and %d bytes", c.TableBlocks(), DimsOf(c).PayloadBytes)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 8; trial++ {
		ebits := randBits(rng, c.Slots)
		priv := randBits(rng, c.Slots*c.NumPrivate)
		want, _, err := c.EvalPlain(nil, ebits, priv)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < c.Slots; s++ {
			on := ebits[s] != priv[s*c.NumPrivate]
			got := UintOfBits(want[s*(1+bits)+1 : (s+1)*(1+bits)])
			var p uint64
			if on {
				p = UintOfBits(priv[s*c.NumPrivate+1 : (s+1)*c.NumPrivate])
			}
			if want[s*(1+bits)] != on || got != p {
				t.Fatalf("trial %d slot %d: plain evaluation gives key %v payload %d, want %v %d", trial, s, want[s*(1+bits)], got, on, p)
			}
		}
		if e, _ := run2PC(t, c, nil, ebits, priv); !reflect.DeepEqual(e, want) {
			t.Fatalf("trial %d: direct 2PC gives %v, want %v", trial, e, want)
		}
		if e, _ := run2PCPre(t, c, nil, ebits, priv); !reflect.DeepEqual(e, want) {
			t.Fatalf("trial %d: pre-garbled 2PC gives %v, want %v", trial, e, want)
		}
	}
}

// TestOutputSelect2PC runs a select through the real protocol, direct and
// pre-garbled, at widths 1, 8, 33 and 65 bits, keyed to a wire a private
// bit flips: the evaluator reads p1 where the wire is 1 and p0 where it
// is 0, and nothing else — no bit of the wire itself. The trials must
// cover both keying values and both colours of the label she holds (the
// key's active label is her input's, whose LSB a seeded garble exposes).
// Each select costs two ⌈bits/8⌉-byte ciphertexts and no gate.
func TestOutputSelect2PC(t *testing.T) {
	for _, bits := range []int{1, 8, 33, 65} {
		b := NewBuilder()
		key := b.XORG(b.EvalInput(), b.PrivateBit())
		p0, p1 := b.PrivateWord(bits), b.PrivateWord(bits)
		b.OutputSelect(key, p0, p1)
		c := b.BuildSlots(3)
		if c.TableBlocks() != 0 || DimsOf(c).PayloadBytes != 3*2*((bits+7)/8) || c.evalOutBits() != bits {
			t.Fatalf("%d bits: select costs %d table blocks and %d bytes, delivers %d bits",
				bits, c.TableBlocks(), DimsOf(c).PayloadBytes, c.evalOutBits())
		}
		rng := rand.New(rand.NewSource(int64(bits)))
		var seen [2][2]bool // [key][colour]
		for trial := 0; trial < 8; trial++ {
			ebits := randBits(rng, c.Slots)
			priv := randBits(rng, c.Slots*c.NumPrivate)
			want, _, err := c.EvalPlain(nil, ebits, priv)
			if err != nil {
				t.Fatal(err)
			}
			gb := garble(c, testKey, prf.NewPRG(prf.Seed{byte(bits), byte(trial)}), priv, false, nil)
			got, _, err := evaluate(c, 0, 0, gb.msg, activeLabels(gb, ebits))
			if err != nil {
				t.Fatal(err)
			}
			labels := prf.BlocksOf(activeLabels(gb, ebits))
			for s := 0; s < c.Slots; s++ {
				sp := priv[s*c.NumPrivate:][:c.NumPrivate]
				on := ebits[s] != sp[0]
				word := sp[1 : 1+bits]
				if on {
					word = sp[1+bits:]
				}
				if !reflect.DeepEqual(want[s*bits:(s+1)*bits], word) {
					t.Fatalf("%d bits trial %d slot %d: plain evaluation selects the wrong word", bits, trial, s)
				}
				seen[b2i(on)][labels[s].LSB()] = true
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d bits trial %d: seeded evaluation gives %v, want %v", bits, trial, got, want)
			}
			if e, _ := run2PC(t, c, nil, ebits, priv); !reflect.DeepEqual(e, want) {
				t.Fatalf("%d bits trial %d: direct 2PC gives %v, want %v", bits, trial, e, want)
			}
			if e, _ := run2PCPre(t, c, nil, ebits, priv); !reflect.DeepEqual(e, want) {
				t.Fatalf("%d bits trial %d: pre-garbled 2PC gives %v, want %v", bits, trial, e, want)
			}
		}
		if seen != [2][2]bool{{true, true}, {true, true}} {
			t.Fatalf("%d bits: trials covered only (key, colour) %v", bits, seen)
		}
	}
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

func TestNeg(t *testing.T) {
	checkWordOpPlain(t, "neg", func(b *Builder, x, y Word) Word { return b.Add(b.Neg(x), y) },
		func(x, y uint64) uint64 { return y - x })
}

func TestMulConst(t *testing.T) {
	for _, k := range []uint64{0, 1, 100, 1<<32 - 1, 1 << 40} {
		checkWordOpPlain(t, fmt.Sprintf("mulconst %d", k), func(b *Builder, x, _ Word) Word { return b.MulConst(x, k) },
			func(x, _ uint64) uint64 { return x * k })
	}
}

// TestDivMod divides a 16-bit dividend by a divisor of its width and by
// a narrower one, whose remainder is kept at the divisor's width.
func TestDivMod(t *testing.T) {
	const n = 16
	for _, m := range []int{n, 9} {
		b := NewBuilder()
		x := b.GarblerInputWord(n)
		y := b.EvalInputWord(m)
		q, r := b.DivMod(x, y)
		b.OutputWordToEval(q)
		b.OutputWordToEval(r)
		c := b.Build()
		mask, ymask := uint64(1)<<n-1, uint64(1)<<m-1
		check := func(xv, yv uint64) {
			xv &= mask
			yv &= ymask
			out, _, err := c.EvalPlain(bitsOfUint(xv, n), bitsOfUint(yv, m), nil)
			if err != nil {
				t.Fatal(err)
			}
			q := UintOfBits(out[:n])
			r := UintOfBits(out[n:])
			wantQ, wantR := mask, xv&ymask
			if yv != 0 {
				wantQ, wantR = xv/yv, xv%yv
			}
			if q != wantQ || r != wantR {
				t.Fatalf("%d / %d (%d-bit divisor): got (%d,%d), want (%d,%d)", xv, yv, m, q, r, wantQ, wantR)
			}
		}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 100; i++ {
			check(rng.Uint64(), rng.Uint64())
		}
		check(100, 7)
		check(5, 0)
		check(0, 5)
		check(mask, 1)
		check(mask, mask)
		check(mask, ymask)
		check(mask, ymask-1)
	}
}

func TestComparisons(t *testing.T) {
	const n = 32
	b := NewBuilder()
	x := b.GarblerInputWord(n)
	y := b.EvalInputWord(n)
	b.OutputToEval(b.GreaterThan(x, y))
	b.OutputToEval(b.GreaterEq(x, y))
	b.OutputToEval(b.Eq(x, y))
	b.OutputToEval(b.IsZero(x))
	b.OutputToEval(b.NonZero(y))
	c := b.Build()
	mask := uint64(1)<<n - 1
	f := func(xv, yv uint64) bool {
		xv &= mask
		yv &= mask
		out, _, err := c.EvalPlain(bitsOfUint(xv, n), bitsOfUint(yv, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		return out[0] == (xv > yv) && out[1] == (xv >= yv) && out[2] == (xv == yv) &&
			out[3] == (xv == 0) && out[4] == (yv != 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for _, pair := range [][2]uint64{{0, 0}, {1, 0}, {0, 1}, {mask, mask}, {mask, 0}, {5, 5}} {
		if !f(pair[0], pair[1]) {
			t.Errorf("edge case %v failed", pair)
		}
	}
}

func TestMuxWord(t *testing.T) {
	const n = 16
	b := NewBuilder()
	sel := b.GarblerInput()
	x := b.GarblerInputWord(n)
	y := b.EvalInputWord(n)
	b.OutputWordToEval(b.MuxWord(sel, x, y))
	c := b.Build()
	for _, s := range []bool{false, true} {
		gBits := append([]bool{s}, bitsOfUint(0x1234, n)...)
		out, _, err := c.EvalPlain(gBits, bitsOfUint(0x5678, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(0x5678)
		if s {
			want = 0x1234
		}
		if UintOfBits(out) != want {
			t.Fatalf("sel=%v: got %x", s, UintOfBits(out))
		}
	}
}

// TestArithmetic2PC runs a nontrivial arithmetic circuit through the real
// protocol: out = (x*y + x - y) revealed to both parties.
func TestArithmetic2PC(t *testing.T) {
	const n = 32
	b := NewBuilder()
	x := b.GarblerInputWord(n)
	y := b.EvalInputWord(n)
	res := b.Add(b.Mul(x, y), b.Sub(x, y))
	b.OutputWordToEval(res)
	b.OutputWordToGarbler(res)
	c := b.Build()

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		xv := rng.Uint64() & (1<<n - 1)
		yv := rng.Uint64() & (1<<n - 1)
		want := (xv*yv + xv - yv) & (1<<n - 1)
		eOut, gOut := run2PC(t, c, bitsOfUint(xv, n), bitsOfUint(yv, n))
		if UintOfBits(eOut) != want || UintOfBits(gOut) != want {
			t.Fatalf("2PC arith: eval=%d garbler=%d want=%d", UintOfBits(eOut), UintOfBits(gOut), want)
		}
	}
}

// TestPlainMatches2PC cross-checks the plain evaluator against the garbled
// protocol on a random circuit.
func TestPlainMatches2PC(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	b := NewBuilder()
	g := b.GarblerInputWord(8)
	e := b.EvalInputWord(8)
	wires := append(append(Word{}, g...), e...)
	for i := 0; i < 200; i++ {
		a := wires[rng.Intn(len(wires))]
		bb := wires[rng.Intn(len(wires))]
		var w Wire
		switch rng.Intn(4) {
		case 0:
			w = b.XOR(a, bb)
		case 1:
			w = b.AND(a, bb)
		case 2:
			w = b.OR(a, bb)
		case 3:
			w = b.Not(a)
		}
		wires = append(wires, w)
	}
	for i := 0; i < 16; i++ {
		b.OutputToEval(wires[len(wires)-1-i])
		b.OutputToGarbler(wires[len(wires)-1-i])
	}
	c := b.Build()

	gBits := make([]bool, 8)
	eBits := make([]bool, 8)
	for i := range gBits {
		gBits[i] = rng.Intn(2) == 1
		eBits[i] = rng.Intn(2) == 1
	}
	wantE, wantG, err := c.EvalPlain(gBits, eBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotE, gotG := run2PC(t, c, gBits, eBits)
	for i := range wantE {
		if gotE[i] != wantE[i] || gotG[i] != wantG[i] {
			t.Fatalf("output %d mismatch", i)
		}
	}
}

func TestValidateRejectsBadCircuits(t *testing.T) {
	c := &Circuit{NumWires: 2, Gates: []Gate{{GateAND, 5, 0, 1}}}
	if err := c.Validate(); err == nil {
		t.Fatal("expected out-of-range error")
	}
	c = &Circuit{NumWires: 3, Const0: 0, Gates: []Gate{{GateAND, 1, 0, 2}}}
	if err := c.Validate(); err == nil {
		t.Fatal("expected undefined-wire error")
	}
	// Payloads: each mutation of a valid keyed payload and select.
	good := func() *Circuit {
		b := NewBuilder()
		x := b.EvalInput()
		b.OutputPayloadIf(x, b.PrivateWord(3))
		b.OutputSelect(x, b.PrivateWord(2), b.PrivateWord(2))
		return b.Build()
	}
	if err := good().Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(c *Circuit){
		"keyed to a wire it does not reveal": func(c *Circuit) { c.Payloads[0].Out = 0 },
		"select past the outputs":            func(c *Circuit) { c.Payloads[1].Out = 2 },
		"out of order":                       func(c *Circuit) { c.Payloads[1].Out, c.Payloads[0].Out = 0, 1 },
		"select words of two widths":         func(c *Circuit) { c.Payloads[1].P0 = c.Payloads[1].P0[:1] },
		"select keyed to a missing wire":     func(c *Circuit) { c.Payloads[1].W = 9 },
		"private bit out of range":           func(c *Circuit) { c.Payloads[1].P0[0] = 99 },
	} {
		c := good()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestInputCountValidation(t *testing.T) {
	b := NewBuilder()
	b.GarblerInputWord(4)
	c := b.Build()
	a, bc := transport.Pair()
	defer a.Close()
	defer bc.Close()
	if _, err := RunGarbler(a, nil, c, []bool{true}, nil); err == nil {
		t.Fatal("expected input count error")
	}
	if _, err := RunEvaluator(bc, nil, c, []bool{true}); err == nil {
		t.Fatal("expected input count error")
	}
}

func TestEvalPlainInputValidation(t *testing.T) {
	b := NewBuilder()
	b.GarblerInputWord(2)
	c := b.Build()
	if _, _, err := c.EvalPlain(nil, nil, nil); err == nil {
		t.Fatal("expected error")
	}
}

func BenchmarkGarbleAND(b *testing.B) {
	bb := NewBuilder()
	x := bb.GarblerInputWord(32)
	y := bb.EvalInputWord(32)
	acc := x
	for i := 0; i < 100; i++ {
		acc = bb.Add(bb.Mul(acc, y), x)
	}
	bb.OutputWordToEval(acc)
	c := bb.Build()
	b.ReportMetric(float64(c.NumAnd), "and_gates")
	gBits := make([]bool, 32)
	eBits := make([]bool, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eOut, gOut := run2PC(b, c, gBits, eBits)
		_, _ = eOut, gOut
	}
}

// TestPrivateBitGates2PC exercises XORG/ANDG (garbler-private constants)
// through the real protocol on all bit combinations, plus the word-level
// helpers EqPrivate and andgWordBit.
func TestPrivateBitGates2PC(t *testing.T) {
	b := NewBuilder()
	x := b.EvalInput()
	p := b.PrivateBit()
	b.OutputToEval(b.XORG(x, p))
	b.OutputToEval(b.ANDG(x, p))
	c := b.Build()
	for _, xv := range []bool{false, true} {
		for _, pv := range []bool{false, true} {
			eOut, _ := run2PC(t, c, nil, []bool{xv}, []bool{pv})
			if eOut[0] != (xv != pv) {
				t.Errorf("XORG x=%v p=%v: got %v", xv, pv, eOut[0])
			}
			if eOut[1] != (xv && pv) {
				t.Errorf("ANDG x=%v p=%v: got %v", xv, pv, eOut[1])
			}
		}
	}
}

func TestEqPrivateAndMaskedWord2PC(t *testing.T) {
	const n = 16
	b := NewBuilder()
	x := b.EvalInputWord(n)
	key := b.PrivateWord(n)
	pay := b.PrivateWord(n)
	sel := b.EqPrivate(x, key)
	b.OutputToEval(sel)
	b.OutputWordToEval(andgWordBit(b, pay, sel))
	c := b.Build()

	cases := []struct{ x, key, pay uint64 }{
		{100, 100, 7777},
		{100, 101, 7777},
		{0, 0, 1},
		{65535, 65535, 65535},
	}
	for _, tc := range cases {
		priv := AppendBits(nil, tc.key, n)
		priv = AppendBits(priv, tc.pay, n)
		eOut, _ := run2PC(t, c, nil, bitsOfUint(tc.x, n), priv)
		wantSel := tc.x == tc.key
		wantPay := uint64(0)
		if wantSel {
			wantPay = tc.pay
		}
		if eOut[0] != wantSel || UintOfBits(eOut[1:]) != wantPay {
			t.Errorf("case %+v: sel=%v pay=%d", tc, eOut[0], UintOfBits(eOut[1:]))
		}
	}
}

func TestPrivateBitCountValidation(t *testing.T) {
	b := NewBuilder()
	x := b.EvalInput()
	b.OutputToEval(b.ANDG(x, b.PrivateBit()))
	c := b.Build()
	a, bc := transport.Pair()
	defer a.Close()
	defer bc.Close()
	if _, err := RunGarbler(a, nil, c, nil, nil); err == nil {
		t.Fatal("expected private bit count error")
	}
	if _, _, err := c.EvalPlain(nil, []bool{true}, nil); err == nil {
		t.Fatal("expected EvalPlain private bit count error")
	}
}

func TestAddPrivate(t *testing.T) {
	const n = 32
	b := NewBuilder()
	x := b.EvalInputWord(n)
	p := b.PrivateWord(n)
	b.OutputWordToEval(b.AddPrivate(x, p))
	c := b.Build()
	mask := uint64(1)<<n - 1
	f := func(xv, pv uint64) bool {
		xv &= mask
		pv &= mask
		out, _, err := c.EvalPlain(nil, bitsOfUint(xv, n), bitsOfUint(pv, n))
		if err != nil {
			t.Fatal(err)
		}
		return UintOfBits(out) == (xv+pv)&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]uint64{{0, 0}, {mask, 1}, {mask, mask}, {1, mask - 1}} {
		if !f(pair[0], pair[1]) {
			t.Errorf("edge %v failed", pair)
		}
	}
	// And through the real protocol once.
	eOut, _ := run2PC(t, c, nil, bitsOfUint(1000, n), bitsOfUint(234, n))
	if UintOfBits(eOut) != 1234 {
		t.Fatalf("2PC AddPrivate: %d", UintOfBits(eOut))
	}
}

// bitsOfUint expands the low n bits of v, little-endian.
func bitsOfUint(v uint64, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = v>>uint(i)&1 == 1
	}
	return out
}

// andgWordBit masks a garbler-private word with wire s: out_i = s & ps_i.
func andgWordBit(b *Builder, ps []PBit, s Wire) Word {
	out := make(Word, len(ps))
	for i := range ps {
		out[i] = b.ANDG(s, ps[i])
	}
	return out
}

// xorWord returns the bitwise XOR of equal-width words (free).
func xorWord(b *Builder, x, y Word) Word {
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.XOR(x[i], y[i])
	}
	return out
}

// orTree reduces wires with a balanced OR tree.
func orTree(b *Builder, bits []Wire) Wire {
	if len(bits) == 0 {
		return b.Const0()
	}
	for len(bits) > 1 {
		tmp := make([]Wire, 0, (len(bits)+1)/2)
		for i := 0; i+1 < len(bits); i += 2 {
			tmp = append(tmp, b.OR(bits[i], bits[i+1]))
		}
		if len(bits)%2 == 1 {
			tmp = append(tmp, bits[len(bits)-1])
		}
		bits = tmp
	}
	return bits[0]
}
