package psi

import (
	"encoding/binary"
	"math/bits"
	"testing"

	"secyan/internal/ot"
	"secyan/internal/prf"
)

// TestKKRTCodeMinDistance checks the property the KKRT OPRF's security
// rests on: any two code words the PSI uses differ in at least κ = 128 of
// their ot.KKRTWidth = 512 bits, so F_b(y) for y ≠ x hashes at least κ
// bits of s the receiver does not know (DESIGN.md §5). The code is
// pseudorandom, so the distance of a pair is Binomial(512, 1/2): mean
// 256, σ = √512/2 ≈ 11.3. Over the ≈ 2²³ pairs of 2¹² composed keys the
// minimum lands 5–6σ below the mean, near 256 − 6σ ≈ 188 (198 with this
// seed), and κ sits 11σ below the mean. A code that filled only one AES
// block of the word would average 64 and fail at once. The larger
// sample, 2¹⁴ keys and ≈ 2²⁷ pairs, runs without -short.
func TestKKRTCodeMinDistance(t *testing.T) {
	n := 1 << 12
	if !testing.Short() {
		n = 1 << 14
	}
	seed := prf.NewPRG(prf.Seed{0xc0}).Seed()
	const words = ot.KKRTCodeBytes / 8
	codes := make([]uint64, n*words)
	var c [ot.KKRTCodeBytes]byte
	for i := 0; i < n; i++ {
		k, err := Compose(uint64(i/3), i%3)
		if err != nil {
			t.Fatal(err)
		}
		codeWord(&c, seed, k)
		for w := 0; w < words; w++ {
			codes[i*words+w] = binary.LittleEndian.Uint64(c[8*w:])
		}
	}
	minDist := ot.KKRTWidth
	for i := 0; i < n; i++ {
		a := codes[i*words : (i+1)*words]
		for j := i + 1; j < n; j++ {
			b := codes[j*words : (j+1)*words]
			d := 0
			for w := range a {
				d += bits.OnesCount64(a[w] ^ b[w])
			}
			minDist = min(minDist, d)
		}
	}
	t.Logf("%d code words, minimum pairwise distance %d", n, minDist)
	if minDist < 128 {
		t.Fatalf("%d code words: minimum pairwise distance %d, below κ = 128", n, minDist)
	}
}
