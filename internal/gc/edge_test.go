package gc

import (
	"testing"
	"testing/quick"
)

// TestWordOpsAtExtremeWidths exercises the arithmetic builders at 1-bit
// and 64-bit widths, the boundaries of the Z_{2^ℓ} ring support.
func TestWordOpsAtExtremeWidths(t *testing.T) {
	for _, n := range []int{1, 2, 64} {
		n := n
		b := NewBuilder()
		x := b.GarblerInputWord(n)
		y := b.EvalInputWord(n)
		b.OutputWordToEval(b.Add(x, y))
		b.OutputWordToEval(b.Sub(x, y))
		b.OutputWordToEval(b.Mul(x, y))
		b.OutputToEval(b.Eq(x, y))
		b.OutputToEval(b.GreaterThan(x, y))
		c := b.Build()
		if err := c.Validate(); err != nil {
			t.Fatalf("width %d: %v", n, err)
		}
		var mask uint64 = ^uint64(0)
		if n < 64 {
			mask = 1<<uint(n) - 1
		}
		f := func(xv, yv uint64) bool {
			xv &= mask
			yv &= mask
			out, _, err := c.EvalPlain(bitsOfUint(xv, n), bitsOfUint(yv, n), nil)
			if err != nil {
				return false
			}
			add := UintOfBits(out[:n])
			sub := UintOfBits(out[n : 2*n])
			mul := UintOfBits(out[2*n : 3*n])
			eq := out[3*n]
			gt := out[3*n+1]
			return add == (xv+yv)&mask && sub == (xv-yv)&mask &&
				mul == (xv*yv)&mask && eq == (xv == yv) && gt == (xv > yv)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("width %d: %v", n, err)
		}
	}
}

// TestZeroExtendAndTrees covers the remaining word helpers.
func TestZeroExtendAndTrees(t *testing.T) {
	b := NewBuilder()
	x := b.EvalInputWord(4)
	wide := b.ZeroExtend(x, 8)
	narrow := b.ZeroExtend(wide, 4) // truncation path
	b.OutputWordToEval(wide)
	b.OutputWordToEval(narrow)
	b.OutputToEval(b.AndTree(nil)) // empty tree = const 1
	b.OutputToEval(orTree(b, nil)) // empty tree = const 0
	c := b.Build()
	out, _, err := c.EvalPlain(nil, bitsOfUint(0b1010, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if UintOfBits(out[:8]) != 0b1010 || UintOfBits(out[8:12]) != 0b1010 {
		t.Fatalf("zero-extend: %v", out)
	}
	if !out[12] || out[13] {
		t.Fatalf("empty trees: and=%v or=%v", out[12], out[13])
	}
}

// TestNotCacheReusesGates: repeated negation of the same wire must not
// grow the circuit.
func TestNotCacheReusesGates(t *testing.T) {
	b := NewBuilder()
	x := b.EvalInput()
	n1 := b.Not(x)
	n2 := b.Not(x)
	if n1 != n2 {
		t.Fatal("NOT gates not cached")
	}
}

// TestTableBlocksAccounting cross-checks the size formula used by the
// wire protocol and the cost estimator.
func TestTableBlocksAccounting(t *testing.T) {
	b := NewBuilder()
	x := b.EvalInput()
	p := b.PrivateBit()
	b.OutputToEval(b.AND(x, x))  // 2 blocks
	b.OutputToEval(b.ANDG(x, p)) // 1 block
	b.OutputToEval(b.XOR(x, x))  // 0
	c := b.Build()
	if c.TableBlocks() != 3 || c.NumAnd != 1 || c.NumAndG != 1 || c.NumPrivate != 1 {
		t.Fatalf("accounting: %+v", c)
	}
}

// TestBuilderContractPanics pins the builder's contract violations to
// panics rather than silent miswiring: every panic site of the package.
// Only in-process builder code, with shapes from public parameters,
// reaches them; Validate is the error-returning check for a circuit
// description from anywhere else.
func TestBuilderContractPanics(t *testing.T) {
	cases := []func(b *Builder){
		func(b *Builder) { b.Add(b.EvalInputWord(2), b.EvalInputWord(3)) },
		func(b *Builder) { b.XORGWord(b.EvalInputWord(2), b.PrivateWord(3)) },
		func(b *Builder) { b.AddPrivate(b.EvalInputWord(2), b.PrivateWord(3)) },
		func(b *Builder) { b.OutputSelect(b.EvalInput(), b.PrivateWord(2), b.PrivateWord(3)) },
		func(b *Builder) { b.OutputSelect(b.EvalInput(), nil, nil) },
		func(b *Builder) { b.Build(); b.Build() },
		func(b *Builder) { b.BuildSlots(-1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f(NewBuilder())
		}()
	}
}
