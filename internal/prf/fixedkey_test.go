package prf

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestDoubleKAT pins GF(2^128) doubling on the carry edge cases the
// quickcheck linearity test cannot distinguish: the reduction polynomial
// fold and plain shifts in each half.
func TestDoubleKAT(t *testing.T) {
	mk := func(s string) Block {
		b, err := hex.DecodeString(s)
		if err != nil || len(b) != 16 {
			t.Fatalf("bad vector %q", s)
		}
		return Block(b)
	}
	cases := []struct{ in, want string }{
		// No carry: a 1 in the low half shifts left.
		{"00000000000000000000000000000001", "00000000000000000000000000000002"},
		// Low-half top bit crosses into the high half.
		{"00000000000000008000000000000000", "00000000000000010000000000000000"},
		// High-half bits shift without reduction.
		{"00000000000000010000000000000000", "00000000000000020000000000000000"},
		// x^127 overflows: reduce by x^7+x^2+x+1 = 0x87.
		{"80000000000000000000000000000000", "00000000000000000000000000000087"},
		// All-ones: shift everything and fold the carry, FE ^ 87 = 79.
		{"ffffffffffffffffffffffffffffffff", "ffffffffffffffffffffffffffffff79"},
	}
	for _, c := range cases {
		if got := Double(mk(c.in)); got != mk(c.want) {
			t.Errorf("Double(%s) = %x, want %s", c.in, got, c.want)
		}
	}
}

// TestHashBlockKAT pins the MMO digest H(X,t) = π(2X⊕t) ⊕ 2X⊕t for a
// handful of (input, tweak) pairs, including tweaks from the OT and PSI
// site domains. Any change to the fixed key, the doubling, the tweak
// placement or the AES kernel shows up here before it silently alters
// every protocol transcript.
func TestHashBlockKAT(t *testing.T) {
	var seq Block
	for i := range seq {
		seq[i] = byte(i)
	}
	cases := []struct {
		name  string
		x     Block
		tweak uint64
		want  string
	}{
		{"zero-t0", Block{}, 0, "fdd8afed56d7708e989ef78330b20af4"},
		{"zero-t1", Block{}, 1, "14d5d1772413300d0d52fc05df18e670"},
		{"one-t0", Block{1}, 0, "bdc437f359d8089169bedb37bdd5ab37"},
		{"seq-ot42", seq, SiteOT | 42, "c781594eff45e78232d5fac6ffaa5936"},
		{"seq-psi2", seq, SitePSI | 2, "fcd68e91e1e3935405226dda26e16ffe"},
	}
	for _, c := range cases {
		h := HashBlock(c.x, c.tweak)
		if got := hex.EncodeToString(h[:]); got != c.want {
			t.Errorf("%s: HashBlock = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestHashBlocksMatchesHashBlock pins the batched path — including the
// 8-wide AESENC kernel and its scalar tail — to the per-block reference,
// for consecutive tweaks (step 1), a fixed tweak (step 0), and the
// aliased in-place form.
func TestHashBlocksMatchesHashBlock(t *testing.T) {
	g := NewPRG(Seed{7})
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 64, 65} {
		src := make([]Block, n)
		g.Read(BlockBytes(src))
		for _, step := range []uint64{0, 1} {
			tweak := SiteOT | uint64(n)*131
			want := make([]Block, n)
			for i := range src {
				want[i] = HashBlock(src[i], tweak+uint64(i)*step)
			}
			dst := make([]Block, n)
			HashBlocks(dst, src, tweak, step)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("n=%d step=%d block %d: batched %x != scalar %x", n, step, i, dst[i], want[i])
				}
			}
			inPlace := make([]Block, n)
			copy(inPlace, src)
			HashBlocks(inPlace, inPlace, tweak, step)
			for i := range want {
				if inPlace[i] != want[i] {
					t.Fatalf("n=%d step=%d block %d: aliased %x != scalar %x", n, step, i, inPlace[i], want[i])
				}
			}
		}
	}
}

func TestHashBlocksLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HashBlocks(make([]Block, 2), make([]Block, 3), 0, 1)
}

func TestHashToWidthAES(t *testing.T) {
	x := Block{9, 9, 9}
	for _, w := range []int{1, 15, 16, 17, 32, 33, 100} {
		a := make([]byte, w)
		b := make([]byte, w)
		HashToWidthAES(a, x, SiteOT|5)
		HashToWidthAES(b, x, SiteOT|5)
		if !bytes.Equal(a, b) {
			t.Fatalf("width %d: not deterministic", w)
		}
		c := make([]byte, w)
		HashToWidthAES(c, x, SiteOT|6)
		if bytes.Equal(a, c) {
			t.Fatalf("width %d: tweaks must separate", w)
		}
		// The first block of the expansion is the plain digest, so narrow
		// and wide consumers of one (input, tweak) pair stay consistent.
		h := HashBlock(x, SiteOT|5)
		n := w
		if n > 16 {
			n = 16
		}
		if !bytes.Equal(a[:n], h[:n]) {
			t.Fatalf("width %d: prefix diverges from HashBlock", w)
		}
	}
}

// TestBlocksOf pins the inverse view of BlockBytes.
func TestBlocksOf(t *testing.T) {
	if BlocksOf(nil) != nil {
		t.Fatal("BlocksOf(nil) must be nil")
	}
	raw := make([]byte, 32)
	for i := range raw {
		raw[i] = byte(i)
	}
	bs := BlocksOf(raw)
	if len(bs) != 2 || bs[0][0] != 0 || bs[1][0] != 16 {
		t.Fatalf("BlocksOf layout wrong: %x", bs)
	}
	bs[1][2] = 0xAA
	if raw[18] != 0xAA {
		t.Fatal("BlocksOf must alias, not copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on len%16 != 0")
		}
	}()
	BlocksOf(make([]byte, 17))
}

// TestSHAvsAESDistinct is the cross-family differential check: the
// SHA-256 path (kept for the base OTs) and the fixed-key AES path are
// independent oracles — deterministic individually, never accidentally
// computing one another.
func TestSHAvsAESDistinct(t *testing.T) {
	var x Block
	x[0] = 1
	aes := HashBlock(x, 3)
	var sha [16]byte
	HashInto(sha[:], 3, x[:])
	if bytes.Equal(aes[:], sha[:]) {
		t.Fatal("AES and SHA hash families must not coincide")
	}
	again := HashBlock(x, 3)
	var sha2 [16]byte
	HashInto(sha2[:], 3, x[:])
	if aes != again || sha != sha2 {
		t.Fatal("both families must be deterministic")
	}
}

// TestKeyExpansionFIPS197 pins the self-contained key schedule (and the
// generated S-box behind it) to the FIPS-197 appendix A/C vectors.
func TestKeyExpansionFIPS197(t *testing.T) {
	key, _ := hex.DecodeString("000102030405060708090a0b0c0d0e0f")
	rk := expandAESKey128([16]byte(key))
	// FIPS-197 appendix C.1 round keys for rounds 1 and 10.
	if got := hex.EncodeToString(rk[16:32]); got != "d6aa74fdd2af72fadaa678f1d6ab76fe" {
		t.Fatalf("round 1 key = %s", got)
	}
	if got := hex.EncodeToString(rk[160:176]); got != "13111d7fe3944a17f307a78b4d2b30c5" {
		t.Fatalf("round 10 key = %s", got)
	}
	if sbox[0x00] != 0x63 || sbox[0x53] != 0xed || sbox[0xff] != 0x16 {
		t.Fatalf("generated S-box wrong: %x %x %x", sbox[0x00], sbox[0x53], sbox[0xff])
	}
}

// TestEncryptBlocks8MatchesCipher pins the 8-wide AESENC kernel to the
// standard library cipher on the fixed key; it is the test that catches
// key-schedule or register-allocation bugs in the assembly.
func TestEncryptBlocks8MatchesCipher(t *testing.T) {
	if !hasAES8 {
		t.Skip("no batched AES kernel on this platform")
	}
	g := NewPRG(Seed{3})
	for trial := 0; trial < 32; trial++ {
		var src, dst [8]Block
		g.Read(BlockBytes(src[:]))
		encryptBlocks8(&fixedRoundKeys, &dst, &src)
		for i := range src {
			var want Block
			fixedAES.Encrypt(want[:], src[i][:])
			if dst[i] != want {
				t.Fatalf("trial %d block %d: asm %x != cipher %x", trial, i, dst[i], want)
			}
		}
	}
}

// TestBatchedHashZeroAlloc pins the tentpole property: the batched MMO
// paths perform no heap allocation, so OT extension and PSI binning can
// call them per chunk without pressuring the collector.
func TestBatchedHashZeroAlloc(t *testing.T) {
	src := make([]Block, 256)
	dst := make([]Block, 256)
	NewPRG(Seed{1}).Read(BlockBytes(src))
	if n := testing.AllocsPerRun(100, func() {
		HashBlocks(dst, src, SiteOT|1, 1)
	}); n != 0 {
		t.Errorf("HashBlocks allocates %.1f times per call, want 0", n)
	}
	wide := make([]byte, 96)
	if n := testing.AllocsPerRun(100, func() {
		HashToWidthAES(wide, src[0], SiteOT|2)
	}); n != 0 {
		t.Errorf("HashToWidthAES allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = HashBlock(src[0], SiteGC|3)
	}); n != 0 {
		t.Errorf("HashBlock allocates %.1f times per call, want 0", n)
	}
	tweaks := make([]uint64, 13)
	if n := testing.AllocsPerRun(100, func() {
		Word(7).HashTweaks(dst[:13], src[:13], tweaks)
		Word(7).HashTweaks(dst[:5], dst[:5], tweaks[:5])
	}); n != 0 {
		t.Errorf("HashTweaks allocates %.1f times per call, want 0", n)
	}
}

// onReferencePath runs f with the fused kernel switched off, so every MMO
// hash takes the per-block crypto/aes path.
func onReferencePath(f func()) {
	saved := hasAES8
	defer func() { hasAES8 = saved }()
	hasAES8 = false
	f()
}

// TestFusedKernelMatchesReference pins the fused MMO kernel to the
// per-block crypto/aes path through every entry point: HashTweaks and
// HashBlocks at 0–17 blocks (each partial lane count, alone and after
// whole groups), under per-lane tweaks, step 0, and tweaks that wrap
// past 2^64, out of place and with dst == src, under word 0 and a
// nonzero word; HashBlock; and HashToWidthAES at widths across one and
// two kernel passes.
func TestFusedKernelMatchesReference(t *testing.T) {
	if !hasAES8 {
		t.Skip("no fused kernel on this machine: both paths are the reference")
	}
	g := NewPRG(Seed{11})
	type pattern struct {
		name        string
		tweak, step uint64
	}
	patterns := []pattern{
		{"step1", SiteOT | 17, 1},
		{"step0", SitePSI | 2, 0},
		{"step-slot", SiteGC | 5, 13},
		{"wrap", 1<<64 - 5, 1},
		{"wrap-wide", 1<<64 - 3*977, 977},
	}
	check := func(t *testing.T, what string, got, want []Block) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: block %d: kernel %x, reference %x", what, i, got[i], want[i])
			}
		}
	}
	for _, w := range []Word{0, 0x0123456789abcdef} {
		for n := 0; n <= 17; n++ {
			src := make([]Block, n)
			g.Read(BlockBytes(src))
			lanes := make([]uint64, n)
			for i := range lanes {
				lanes[i] = g.Uint64()
			}
			if n > 0 {
				lanes[0] = 1<<64 - 1
			}
			hash := func(dst, in []Block) { w.HashTweaks(dst, in, lanes) }
			run := func(name string, hash func(dst, in []Block)) {
				want := make([]Block, n)
				onReferencePath(func() { hash(want, src) })
				got := make([]Block, n)
				hash(got, src)
				check(t, fmt.Sprintf("word %#x n=%d %s", uint64(w), n, name), got, want)
				inPlace := append([]Block(nil), src...)
				hash(inPlace, inPlace)
				check(t, fmt.Sprintf("word %#x n=%d %s in place", uint64(w), n, name), inPlace, want)
			}
			run("per-lane", hash)
			for _, p := range patterns {
				run(p.name, func(dst, in []Block) { w.HashBlocks(dst, in, p.tweak, p.step) })
			}
		}
		x := Block(g.Seed())
		for _, tw := range []uint64{0, SiteGC | 3, 1<<64 - 1} {
			var want Block
			onReferencePath(func() { want = w.HashBlock(x, tw) })
			if got := w.HashBlock(x, tw); got != want {
				t.Fatalf("word %#x HashBlock(tweak %#x): kernel %x, reference %x", uint64(w), tw, got, want)
			}
		}
		for _, width := range []int{0, 1, 16, 17, 64, 100, 144, 145, 300} {
			want := make([]byte, width)
			onReferencePath(func() { w.HashToWidthAES(want, x, SitePay|9) })
			got := make([]byte, width)
			w.HashToWidthAES(got, x, SitePay|9)
			if !bytes.Equal(got, want) {
				t.Fatalf("word %#x HashToWidthAES width %d: kernel %x, reference %x", uint64(w), width, got, want)
			}
		}
	}
}

// FuzzHashBlocks feeds the fused kernel any blocks, tweak, step and word,
// and requires HashBlocks — in place and not — to equal the per-block
// crypto/aes path.
func FuzzHashBlocks(f *testing.F) {
	f.Add(make([]byte, 16*9), uint64(SiteOT|1), uint64(1), uint64(0))
	f.Add(make([]byte, 16*3), uint64(1<<64-2), uint64(0), uint64(5))
	f.Add(make([]byte, 16*16), uint64(1<<64-1), uint64(1<<63), uint64(1<<64-1))
	f.Fuzz(func(t *testing.T, data []byte, tweak, step, word uint64) {
		src := BlocksOf(bytes.Clone(data[:len(data)&^15]))
		w := Word(word)
		want := make([]Block, len(src))
		onReferencePath(func() { w.HashBlocks(want, src, tweak, step) })
		got := make([]Block, len(src))
		w.HashBlocks(got, src, tweak, step)
		w.HashBlocks(src, src, tweak, step)
		for i := range want {
			if got[i] != want[i] || src[i] != want[i] {
				t.Fatalf("block %d of %d: kernel %x, in place %x, reference %x", i, len(want), got[i], src[i], want[i])
			}
		}
	})
}

// The before/after benchmark pair of the SHA→AES switch: BenchmarkHashSHA
// is what OT pad derivation cost per 16-byte message before this change,
// BenchmarkHashAES what it costs now. The batched variants amortize per
// call overheads across a 512-block sweep (an IKNP chunk).
func BenchmarkHashSHA(b *testing.B) {
	var in [16]byte
	var out [16]byte
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(16)
		for i := 0; i < b.N; i++ {
			HashInto(out[:], uint64(i), in[:])
		}
	})
	b.Run("batch512", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(512 * 16)
		for i := 0; i < b.N; i++ {
			for j := 0; j < 512; j++ {
				HashInto(out[:], uint64(j), in[:])
			}
		}
	})
}

func BenchmarkHashAES(b *testing.B) {
	var x Block
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(16)
		for i := 0; i < b.N; i++ {
			x = HashBlock(x, uint64(i))
		}
	})
	src := make([]Block, 512)
	dst := make([]Block, 512)
	NewPRG(Seed{2}).Read(BlockBytes(src))
	b.Run("batch512", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(512 * 16)
		for i := 0; i < b.N; i++ {
			HashBlocks(dst, src, SiteOT|uint64(i), 1)
		}
	})
}

// TestWordIsTheTweaksHighLane pins the 128-bit tweak (w, t): the word
// lands in the high 8 bytes of the doubled input exactly as t lands in
// the low 8 — so w.HashBlock(x, t) is the word-0 hash of x with the
// word folded into 2x's high lane — and word 0 is the package-level
// hash. The batched and the width-expanding paths agree with the
// per-block one under any word, and the SHA-256 path appends a nonzero
// word after the data.
func TestWordIsTheTweaksHighLane(t *testing.T) {
	g := NewPRG(Seed{8})
	x := g.Seed()
	const w = Word(0x0123456789abcdef)
	d := Double(Block(x))
	binary.LittleEndian.PutUint64(d[:8], binary.LittleEndian.Uint64(d[:8])^uint64(w))
	binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])^(SiteOT|9))
	var e Block
	fixedAES.Encrypt(e[:], d[:])
	XORBlock(&e, e, d)
	if got := w.HashBlock(Block(x), SiteOT|9); got != e {
		t.Fatalf("w.HashBlock = %x, want π(2x ⊕ t) ⊕ 2x ⊕ t = %x", got, e)
	}
	if Word(0).HashBlock(Block(x), 9) != HashBlock(Block(x), 9) || w.HashBlock(Block(x), 9) == HashBlock(Block(x), 9) {
		t.Fatal("word 0 is not the package-level hash, or a word changes nothing")
	}
	src := make([]Block, 19)
	g.Read(BlockBytes(src))
	dst := make([]Block, len(src))
	w.HashBlocks(dst, src, SiteGC|5, 3)
	for i := range src {
		if dst[i] != w.HashBlock(src[i], SiteGC|5+uint64(3*i)) {
			t.Fatalf("block %d: batched and per-block hashes differ under word %#x", i, uint64(w))
		}
	}
	wide := make([]byte, 40)
	w.HashToWidthAES(wide, Block(x), SitePay|2)
	if h := w.HashBlock(Block(x), SitePay|2); !bytes.Equal(wide[:16], h[:]) {
		t.Fatal("HashToWidthAES's first block is not the word's HashBlock")
	}
	var got, got0 [32]byte
	data := g.Bytes(64)
	w.HashInto(got[:], 1<<63|4, data)
	Word(0).HashInto(got0[:], 1<<63|4, data)
	var wb [8]byte
	binary.LittleEndian.PutUint64(wb[:], uint64(w))
	if got != Hash(1<<63|4, data, wb[:]) || got0 != Hash(1<<63|4, data) {
		t.Fatal("HashInto does not append the nonzero word after the data")
	}
}
