package gc

import (
	"math"
	"testing"

	"secyan/internal/prf"
)

// TestANDControlBitsHideColours is the privacy property of three-halves
// garbling that no correctness test can see. For one AND gate, garbled
// over many seeds for each pair of zero-label colours (λ_a, λ_b), the
// evaluator's whole view of the control bits at a fixed colour pair
// (i, j) — the 5 bits on the wire and the control values ρ she decodes
// from them — must have one distribution whatever λ_a and λ_b are: the
// control values select the linear map she applies to her labels, and λ
// is what would tell her the semantic values behind her colours. A
// chi-square statistic compares each λ pair's histogram with the pooled
// one; a garbler that sends its control bits without the hash masks, or
// draws ρ without its randomness, fails it by orders of magnitude.
func TestANDControlBitsHideColours(t *testing.T) {
	b := NewBuilder()
	b.OutputToEval(b.AND(b.EvalInput(), b.EvalInput()))
	c := b.Build()
	ctlOff, andgOff, _ := tableLayout(c.NumAnd, c.NumAndG)
	const trials = 4000
	// hist[i][j][λ] counts the view ρ₁ | ρ₂<<1 | ctl<<2 at colours (i, j).
	var hist [2][2][4][128]int
	for lam := 0; lam < 4; lam++ {
		la, lb := uint8(lam&1), uint8(lam>>1)
		for k := 0; k < trials; k++ {
			g := prf.NewPRG(prf.Seed{byte(k), byte(k >> 8), byte(lam), 0xa7})
			in := make([]prf.Block, 2)
			g.Read(prf.BlockBytes(in))
			in[0][15] = in[0][15]&^1 | la
			in[1][15] = in[1][15]&^1 | lb
			gb := garble(c, testKey, g, nil, false, in)
			ctl := ctlAt(gb.msg[ctlOff:andgOff], 0)
			for i := uint8(0); i < 2; i++ {
				for j := uint8(0); j < 2; j++ {
					a, bb := in[0], in[1]
					if i != la {
						prf.XORBlock(&a, a, testKey.delta)
					}
					if j != lb {
						prf.XORBlock(&bb, bb, testKey.delta)
					}
					hA := prf.HashBlock(a, testKey.base)
					hB := prf.HashBlock(bb, testKey.base+1)
					hX := prf.HashBlock(prf.XORBlockValue(a, bb), testKey.base+2)
					r1, r2 := decodeRho(i, j, &hA, &hB, &hX, ctl)
					hist[i][j][lam][r1|r2<<1|ctl<<2]++
				}
			}
		}
	}
	for i := range hist {
		for j := range hist[i] {
			h := &hist[i][j]
			chi2, df := 0.0, 0
			for v := range h[0] {
				pooled := h[0][v] + h[1][v] + h[2][v] + h[3][v]
				if pooled == 0 {
					continue
				}
				df += 3
				want := float64(pooled) / 4
				for lam := range h {
					d := float64(h[lam][v]) - want
					chi2 += d * d / want
				}
			}
			df -= 3
			if limit := float64(df) + 6*math.Sqrt(2*float64(df)); chi2 > limit {
				t.Errorf("colours (%d, %d): the control-bit view depends on the zero-label colours: χ² = %.0f over %d degrees of freedom, want ≤ %.0f",
					i, j, chi2, df, limit)
			}
			t.Logf("colours (%d, %d): χ² = %.1f over %d degrees of freedom", i, j, chi2, df)
		}
	}
}
