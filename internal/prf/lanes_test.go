package prf

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// TestExpandKeys4KAT pins NewCTRs' four-abreast schedules to
// expandAESKey128: the FIPS-197 appendix A.1 key (whose round-10 key the
// appendix gives) in each of the four interleaved slots, and random keys
// at every count from 1 to 9, so both whole groups of four and the
// one-at-a-time tail are covered.
func TestExpandKeys4KAT(t *testing.T) {
	if !hasAES8 {
		t.Skip("no AES-NI key schedule on this platform")
	}
	a1, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 9; n++ {
		keys := make([]Seed, n)
		for i := range keys {
			rng.Read(keys[i][:])
		}
		if n == 4 {
			for i := range keys {
				keys[i] = Seed(a1)
			}
		}
		ctrs := make([]CTR, n)
		NewCTRs(ctrs, keys)
		for i, c := range ctrs {
			if want := expandAESKey128(keys[i]); c.rk != want {
				t.Fatalf("n=%d: key %d's schedule %x, want %x", n, i, c.rk, want)
			}
			if c.block != nil {
				t.Fatalf("n=%d: key %d kept a cipher.Block on the AES-NI path", n, i)
			}
		}
		if n == 4 {
			for i, c := range ctrs {
				if got := hex.EncodeToString(c.rk[160:]); got != "d014f9a8c9ee2589e13f0cc8b6630ca6" {
					t.Fatalf("FIPS-197 A.1 key in slot %d: round 10 key %s", i, got)
				}
			}
		}
	}
}

// TestLaneKernelsMatchKeyStream pins LeafSums and KeyBlocks to
// crypto/cipher's CTR under each key: every lane, total and bit sum at
// 1 to 33 counters from random starting blocks, including counters that
// carry across a byte of the big-endian block number.
func TestLaneKernelsMatchKeyStream(t *testing.T) {
	if !Lanes() {
		t.Skip("no lane kernels on this platform")
	}
	rng := rand.New(rand.NewSource(8))
	var seeds [16]Seed
	var keys [16]CTR
	for trial := 0; trial < 40; trial++ {
		for i := range seeds {
			rng.Read(seeds[i][:])
		}
		NewCTRs(keys[:], seeds[:])
		n := 1 + trial%33
		ctr := rng.Uint64() >> 8
		if trial%4 == 0 {
			ctr = 0xff - uint64(trial%7)
		}
		streams := make([][]byte, len(seeds))
		for y, s := range seeds {
			streams[y] = refKeyStream(s, ctr*16, n*16)
		}
		stride := n + trial%3
		dst := make([]Block, 8*stride)
		check := func(what string, row int, lanes func(y int) bool) {
			t.Helper()
			want := make([]byte, n*16)
			for y := range streams {
				if lanes(y) {
					XORBytes(want, want, streams[y])
				}
			}
			if got := BlockBytes(dst[row*stride : row*stride+n]); string(got) != string(want) {
				t.Fatalf("trial %d (n=%d, ctr=%d): %s differs from the keystreams", trial, n, ctr, what)
			}
		}
		LeafSums(dst, stride, &keys, ctr, n)
		check("total", 0, func(int) bool { return true })
		for b := 0; b < 4; b++ {
			check("bit sum", 1+b, func(y int) bool { return y>>b&1 == 1 })
		}
		for _, pairs := range []bool{false, true} {
			KeyBlocks(dst, stride, (*[8]CTR)(keys[8:]), ctr, n, pairs)
			for l := 0; l < 8; l++ {
				l := l
				check("lane", l, func(y int) bool {
					return y == 8+l || pairs && l%2 == 0 && y == 8+l+1
				})
			}
		}
	}
}

// BenchmarkLanes reports the lane kernels per AES block they compute,
// against the floor: one key's 8-block pass (encryptBlocks8, no fold,
// no per-lane keys). LeafSums at 1 block is a one-block piece of a
// SoftSpoken chunk (m ≤ 128), at 16 a whole piece. NewCTRs is per key.
func BenchmarkLanes(b *testing.B) {
	if !Lanes() {
		b.Skip("no lane kernels on this platform")
	}
	var seeds [16]Seed
	for i := range seeds {
		seeds[i] = Seed{byte(i)}
	}
	var keys [16]CTR
	NewCTRs(keys[:], seeds[:])
	dst := make([]Block, 8*16)
	perBlock := func(b *testing.B, blocks int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
	}
	b.Run("floor", func(b *testing.B) {
		var src, out [8]Block
		for i := 0; i < b.N; i++ {
			encryptBlocks8(&keys[0].rk, &out, &src)
		}
		perBlock(b, 8)
	})
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprintf("LeafSums/blocks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LeafSums(dst, 16, &keys, uint64(i), n)
			}
			perBlock(b, 16*n)
		})
	}
	b.Run("KeyBlocks/blocks=2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			KeyBlocks(dst, 16, (*[8]CTR)(keys[:8]), uint64(i), 2, false)
		}
		perBlock(b, 16)
	})
	b.Run("NewCTRs/keys=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewCTRs(keys[:], seeds[:])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*16), "ns/key")
	})
	b.Run("NewCTR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			keys[0] = NewCTR(seeds[0])
		}
	})
}
