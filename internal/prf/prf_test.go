package prf

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPRGDeterministic(t *testing.T) {
	seed := Seed{1, 2, 3}
	a := NewPRG(seed).Bytes(1024)
	b := NewPRG(seed).Bytes(1024)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed must give same stream")
	}
}

func TestPRGDistinctSeedsDistinctStreams(t *testing.T) {
	a := NewPRG(Seed{1}).Bytes(64)
	b := NewPRG(Seed{2}).Bytes(64)
	if bytes.Equal(a, b) {
		t.Fatal("distinct seeds gave identical streams")
	}
}

func TestPRGStreamContinuity(t *testing.T) {
	g1 := NewPRG(Seed{9})
	whole := g1.Bytes(100)
	g2 := NewPRG(Seed{9})
	part := append(g2.Bytes(37), g2.Bytes(63)...)
	if !bytes.Equal(whole, part) {
		t.Fatal("split reads must concatenate to the full stream")
	}
}

func TestPRGReadFillsBuffer(t *testing.T) {
	g := NewPRG(Seed{5})
	buf := make([]byte, 33)
	n, err := g.Read(buf)
	if n != 33 || err != nil {
		t.Fatalf("Read: %d, %v", n, err)
	}
	allZero := true
	for _, b := range buf {
		if b != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("Read produced all zeros")
	}
}

func TestUint64nInRange(t *testing.T) {
	g := NewPRG(RandomSeed())
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 100; i++ {
			if v := g.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPRG(Seed{}).Uint64n(0)
}

func TestPermIsPermutation(t *testing.T) {
	g := NewPRG(RandomSeed())
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := g.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestHashDomainSeparation(t *testing.T) {
	a := Hash(1, []byte("x"))
	b := Hash(2, []byte("x"))
	if a == b {
		t.Fatal("different domains must hash differently")
	}
	c := Hash(1, []byte("x"))
	if a != c {
		t.Fatal("hash must be deterministic")
	}
}

func TestXORBytes(t *testing.T) {
	a := []byte{0xFF, 0x0F}
	b := []byte{0x0F, 0x0F}
	dst := make([]byte, 2)
	XORBytes(dst, a, b)
	if dst[0] != 0xF0 || dst[1] != 0x00 {
		t.Fatalf("got %v", dst)
	}
}

func TestDoubleGF128(t *testing.T) {
	// Doubling zero is zero; doubling is linear over XOR.
	if Double(Block{}) != (Block{}) {
		t.Fatal("2*0 != 0")
	}
	f := func(a, b Block) bool {
		return Double(XORBlockValue(a, b)) == XORBlockValue(Double(a), Double(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// High-bit overflow must fold in the reduction polynomial 0x87.
	var top Block
	top[0] = 0x80
	d := Double(top)
	var want Block
	want[15] = 0x87
	if d != want {
		t.Fatalf("Double(x^127) = %x, want %x", d, want)
	}
}

func TestHashBlockTweakSeparation(t *testing.T) {
	x := Block{1, 2, 3}
	if HashBlock(x, 0) == HashBlock(x, 1) {
		t.Fatal("tweaks must separate")
	}
	y := Block{1, 2, 4}
	if HashBlock(x, 0) == HashBlock(y, 0) {
		t.Fatal("inputs must separate")
	}
	if HashBlock(x, 7) != HashBlock(x, 7) {
		t.Fatal("must be deterministic")
	}
}

func TestRandomSeedVaries(t *testing.T) {
	if RandomSeed() == RandomSeed() {
		t.Fatal("two random seeds collided")
	}
}

// TestHashIntoMatchesHash pins that the allocation-free digest path is
// byte-identical to the streaming Hash — the OT transcript depends on it.
func TestHashIntoMatchesHash(t *testing.T) {
	g := NewPRG(Seed{42})
	for _, n := range []int{0, 1, 15, 16, 31, 63, 64} {
		data := g.Bytes(n)
		want := Hash(uint64(n)*977+5, data)
		for _, w := range []int{0, 1, 16, 32} {
			dst := make([]byte, w)
			HashInto(dst, uint64(n)*977+5, data)
			if !bytes.Equal(dst, want[:w]) {
				t.Fatalf("HashInto(%d bytes → %d) = % x, want % x", n, w, dst, want[:w])
			}
		}
	}
}

// TestBlockBytesAliases pins the unsafe reinterpretation used for bulk
// garbled-table copies: the view must alias the blocks in order.
func TestBlockBytesAliases(t *testing.T) {
	if BlockBytes(nil) != nil {
		t.Fatal("BlockBytes(nil) must be nil")
	}
	bs := []Block{{1, 2}, {3, 4}}
	v := BlockBytes(bs)
	if len(v) != 32 || v[0] != 1 || v[1] != 2 || v[16] != 3 || v[17] != 4 {
		t.Fatalf("BlockBytes layout wrong: % x", v)
	}
	v[16] = 9
	if bs[1][0] != 9 {
		t.Fatal("BlockBytes must alias, not copy")
	}
}
