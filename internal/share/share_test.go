package share

import (
	"testing"
	"testing/quick"

	"secyan/internal/prf"
)

func TestSplitCombineRoundTrip(t *testing.T) {
	g := prf.NewPRG(prf.Seed{1})
	for _, bits := range []int{1, 8, 32, 63, 64} {
		r := Ring{Bits: bits}
		f := func(v uint64) bool {
			v = r.Mask(v)
			s1, s2 := r.Split(g, v)
			return r.Add(s1, s2) == v && s1 == r.Mask(s1) && s2 == r.Mask(s2)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
	}
}

func TestRingArithmetic(t *testing.T) {
	r := Ring{Bits: 8}
	if r.Add(200, 100) != 44 {
		t.Fatalf("Add: %d", r.Add(200, 100))
	}
	if r.Sub(10, 20) != 246 {
		t.Fatalf("Sub: %d", r.Sub(10, 20))
	}
	if r.Mul(16, 16) != 0 {
		t.Fatalf("Mul: %d", r.Mul(16, 16))
	}
	if r.Neg(1) != 255 {
		t.Fatalf("Neg: %d", r.Neg(1))
	}
	if r.Mask(256) != 0 || r.Mask(257) != 1 {
		t.Fatal("Mask")
	}
	r64 := Ring{Bits: 64}
	if r64.Mask(^uint64(0)) != ^uint64(0) {
		t.Fatal("64-bit mask must be identity")
	}
}

func TestSharesLookUniform(t *testing.T) {
	// Local additivity: sharing the same value twice must give different
	// shares (they are fresh randomness).
	g := prf.NewPRG(prf.RandomSeed())
	r := Ring{Bits: 32}
	a1, _ := r.Split(g, 42)
	b1, _ := r.Split(g, 42)
	if a1 == b1 {
		t.Fatal("two sharings produced identical first shares (suspicious)")
	}
}

func TestSliceHelpers(t *testing.T) {
	g := prf.NewPRG(prf.Seed{7})
	r := Ring{Bits: 16}
	vals := []uint64{0, 1, 65535, 12345}
	s1, s2 := r.SplitSlice(g, vals)
	got := r.CombineSlice(s1, s2)
	for i := range vals {
		if got[i] != r.Mask(vals[i]) {
			t.Fatalf("index %d: %d != %d", i, got[i], vals[i])
		}
	}
	// Local addition of shares adds the underlying values.
	t1, t2 := r.SplitSlice(g, []uint64{5, 10, 20, 40})
	sum1 := r.AddSlices(s1, t1)
	sum2 := r.AddSlices(s2, t2)
	want := []uint64{5, 11, 19, 12345 + 40}
	gotSum := r.CombineSlice(sum1, sum2)
	for i := range want {
		if gotSum[i] != r.Mask(want[i]) {
			t.Fatalf("sum index %d: %d != %d", i, gotSum[i], want[i])
		}
	}
}

func TestMismatchedSlicesPanic(t *testing.T) {
	r := Ring{Bits: 8}
	for _, f := range []func(){
		func() { r.CombineSlice([]uint64{1}, nil) },
		func() { r.AddSlices([]uint64{1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
