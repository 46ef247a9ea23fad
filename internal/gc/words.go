package gc

import "fmt"

// Word is a little-endian vector of wires representing an unsigned integer
// modulo 2^len. All arithmetic helpers operate modulo the word width,
// matching the Z_{2^ℓ} annotation semiring of the paper (§3.1).
type Word []Wire

// GarblerInputWord allocates an n-bit garbler input.
func (b *Builder) GarblerInputWord(n int) Word {
	w := make(Word, n)
	for i := range w {
		w[i] = b.GarblerInput()
	}
	return w
}

// EvalInputWord allocates an n-bit evaluator input.
func (b *Builder) EvalInputWord(n int) Word {
	w := make(Word, n)
	for i := range w {
		w[i] = b.EvalInput()
	}
	return w
}

// ConstWord returns an n-bit constant.
func (b *Builder) ConstWord(v uint64, n int) Word {
	w := make(Word, n)
	for i := range w {
		w[i] = b.ConstBit(v>>uint(i)&1 == 1)
	}
	return w
}

// OutputWordToEval reveals all bits of w to the evaluator.
func (b *Builder) OutputWordToEval(w Word) {
	for _, wire := range w {
		b.OutputToEval(wire)
	}
}

// OutputWordToGarbler reveals all bits of w to the garbler.
func (b *Builder) OutputWordToGarbler(w Word) {
	for _, wire := range w {
		b.OutputToGarbler(wire)
	}
}

// ANDWordBit masks every bit of x with the single wire s.
func (b *Builder) ANDWordBit(x Word, s Wire) Word {
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.AND(x[i], s)
	}
	return out
}

// MuxWord returns sel ? x : y bitwise; one AND per bit.
func (b *Builder) MuxWord(sel Wire, x, y Word) Word {
	mustSameLen(x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.Mux(sel, x[i], y[i])
	}
	return out
}

// Add returns (x + y) mod 2^n using a ripple-carry adder: one AND gate per
// bit (carry c' = c ^ ((a^c)&(b^c))).
func (b *Builder) Add(x, y Word) Word {
	mustSameLen(x, y)
	out := make(Word, len(x))
	carry := b.Const0()
	for i := range x {
		axc := b.XOR(x[i], carry)
		byc := b.XOR(y[i], carry)
		out[i] = b.XOR(axc, y[i])
		if i < len(x)-1 { // last carry is discarded (mod 2^n)
			carry = b.XOR(carry, b.AND(axc, byc))
		}
	}
	return out
}

// Sub returns (x - y) mod 2^n as x + ^y + 1.
func (b *Builder) Sub(x, y Word) Word {
	mustSameLen(x, y)
	out := make(Word, len(x))
	carry := b.Const1()
	for i := range x {
		ny := b.Not(y[i])
		axc := b.XOR(x[i], carry)
		byc := b.XOR(ny, carry)
		out[i] = b.XOR(axc, ny)
		if i < len(x)-1 {
			carry = b.XOR(carry, b.AND(axc, byc))
		}
	}
	return out
}

// AddPrivate returns (x + p) mod 2^n where p is a garbler-private word.
// At most the AND count of Add, but the private operand costs no wire
// labels. Protocols use it to fold the garbler's additive shares and
// masks into a circuit: the garbler supplies its share (or the negated
// mask) as private bits instead of paying 128-bit input labels per bit.
// Where one of a bit's two wire operands — x's bit or the carry in — is
// the constant-false wire, the carry out is the other one ∧ p: one ANDG
// instead of an AND, and nothing at all when both are. A zero-extended
// bit plus a mask, say, costs one ANDG per high bit.
func (b *Builder) AddPrivate(x Word, ps []PBit) Word {
	if len(x) != len(ps) {
		// Builder misuse: circuits are built in-process from public
		// shapes, so no peer message can reach this.
		panic("gc: AddPrivate width mismatch")
	}
	out := make(Word, len(x))
	carry := b.Const0()
	for i := range x {
		axc := b.XOR(x[i], carry)
		out[i] = b.XORG(axc, ps[i])
		if i == len(x)-1 {
			break // the last carry is discarded (mod 2^n)
		}
		switch {
		case x[i] == b.const0 && carry == b.const0:
		case x[i] == b.const0:
			carry = b.ANDG(carry, ps[i])
		case carry == b.const0:
			carry = b.ANDG(x[i], ps[i])
		default:
			carry = b.XOR(carry, b.AND(axc, b.XORG(carry, ps[i])))
		}
	}
	return out
}

// Neg returns (-x) mod 2^n.
func (b *Builder) Neg(x Word) Word {
	return b.Sub(b.ConstWord(0, len(x)), x)
}

// Eq returns a single wire that is 1 iff x == y (n-1 AND gates).
func (b *Builder) Eq(x, y Word) Wire {
	mustSameLen(x, y)
	bits := make([]Wire, len(x))
	for i := range x {
		bits[i] = b.Not(b.XOR(x[i], y[i]))
	}
	return b.AndTree(bits)
}

// IsZero returns 1 iff every bit of x is 0.
func (b *Builder) IsZero(x Word) Wire {
	bits := make([]Wire, len(x))
	for i := range x {
		bits[i] = b.Not(x[i])
	}
	return b.AndTree(bits)
}

// NonZero returns 1 iff x != 0.
func (b *Builder) NonZero(x Word) Wire { return b.Not(b.IsZero(x)) }

// AndTree reduces wires with a balanced AND tree.
func (b *Builder) AndTree(bits []Wire) Wire {
	if len(bits) == 0 {
		return b.Const1()
	}
	for len(bits) > 1 {
		tmp := make([]Wire, 0, (len(bits)+1)/2)
		for i := 0; i+1 < len(bits); i += 2 {
			tmp = append(tmp, b.AND(bits[i], bits[i+1]))
		}
		if len(bits)%2 == 1 {
			tmp = append(tmp, bits[len(bits)-1])
		}
		bits = tmp
	}
	return bits[0]
}

// GreaterThan returns 1 iff x > y (unsigned). It computes the final borrow
// of y - x: borrow set means y < x.
func (b *Builder) GreaterThan(x, y Word) Wire {
	mustSameLen(x, y)
	// Compute y + ^x + 1; the carry OUT of the top bit is 1 iff y >= x.
	carry := b.Const1()
	for i := range x {
		nx := b.Not(x[i])
		ayc := b.XOR(y[i], carry)
		bxc := b.XOR(nx, carry)
		carry = b.XOR(carry, b.AND(ayc, bxc))
	}
	return b.Not(carry) // carry==0 ⇔ y < x ⇔ x > y
}

// GreaterEq returns 1 iff x >= y (unsigned).
func (b *Builder) GreaterEq(x, y Word) Wire {
	return b.Not(b.GreaterThan(y, x))
}

// Mul returns (x * y) mod 2^n via shift-and-add; O(n²) AND gates. This is
// the ⊗ of the (Z_{2^ℓ}, +, ×) semiring used for sum-of-products queries.
// Partial product i is x·y[i] shifted left by i, so its low i bits are
// known zeros and only its n−i significant bits are added, into the top
// n−i bits of the accumulator: (n−1)(n−2)/2 adder ANDs on top of the
// n(n+1)/2 partial-product ANDs.
func (b *Builder) Mul(x, y Word) Word {
	mustSameLen(x, y)
	n := len(x)
	acc := b.ANDWordBit(x, y[0])
	for i := 1; i < n; i++ {
		copy(acc[i:], b.Add(acc[i:], b.ANDWordBit(x[:n-i], y[i])))
	}
	return acc
}

// DivMod returns (x / y, x % y) by restoring division; if y == 0 the
// quotient is all ones and the remainder is x, mirroring typical hardware
// semantics. O(n²) AND gates. Used for the avg/ratio query compositions of
// paper §7 (Query 8).
func (b *Builder) DivMod(x, y Word) (quot, rem Word) {
	mustSameLen(x, y)
	n := len(x)
	rem = b.ConstWord(0, n)
	quot = make(Word, n)
	for i := n - 1; i >= 0; i-- {
		// rem = (rem << 1) | x[i]
		shifted := make(Word, n)
		shifted[0] = x[i]
		copy(shifted[1:], rem[:n-1])
		rem = shifted
		ge := b.GreaterEq(rem, y)
		rem = b.MuxWord(ge, b.Sub(rem, y), rem)
		quot[i] = ge
	}
	// Handle y == 0: quotient all ones, remainder x.
	yZero := b.IsZero(y)
	ones := b.ConstWord(^uint64(0), n)
	quot = b.MuxWord(yZero, ones, quot)
	rem = b.MuxWord(yZero, x, rem)
	return quot, rem
}

// ZeroExtend widens x to n bits.
func (b *Builder) ZeroExtend(x Word, n int) Word {
	if len(x) >= n {
		return x[:n]
	}
	out := make(Word, n)
	copy(out, x)
	for i := len(x); i < n; i++ {
		out[i] = b.Const0()
	}
	return out
}

// mustSameLen panics on builder misuse: circuits are built in-process
// from public shapes, so no peer message can reach it.
func mustSameLen(x, y Word) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("gc: word width mismatch: %d vs %d", len(x), len(y)))
	}
}

// UintOfBits packs little-endian bits into a uint64 (n ≤ 64).
func UintOfBits(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

// AppendBits appends the low n bits of v to dst.
func AppendBits(dst []bool, v uint64, n int) []bool {
	for i := 0; i < n; i++ {
		dst = append(dst, v>>uint(i)&1 == 1)
	}
	return dst
}
