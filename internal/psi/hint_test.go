package psi

import (
	"math"
	"testing"

	"secyan/internal/prf"
)

// encodeKeys programs keys[i] to vals[i] in a fresh hint.
func encodeKeys(h hintDims, seed prf.Seed, keys []uint64, vals []value, g *prf.PRG) ([]byte, error) {
	eqs := make([]equation, len(keys))
	for i, k := range keys {
		eqs[i] = h.equation(seed, k, vals[i])
	}
	hint := make([]byte, h.bytes())
	return hint, h.encode(hint, eqs, g)
}

// TestOKVSFailureRate measures how often the store's system lacks full
// rank at band widths far below W, where failures are frequent enough to
// count, fits log₂ of the rate against the width and the number of keys,
// and checks that the shipped (ε, W) extrapolates to at most 2^-σ at
// n = 2^23 keys. Rows are drawn from a seeded PRG: the rank argument
// models the row hash as uniform (DESIGN.md §14), so this measures the
// structure, not the hash.
//
// The fit, per set size, is a weighted line log₂λ = a − b·w through the
// Poisson rate λ = −ln(1 − failures/trials). The slope is steepest for
// small sets, whose W extra slots are a large share of the store, and
// flattens as n grows, so the flatter of the two largest sizes' slopes
// carries the largest size's line to W, and the rate's growth in n is
// read off those two sizes.
func TestOKVSFailureRate(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test: seconds of encoding")
	}
	type point struct{ w, fails, trials int }
	sizes := []struct {
		n      int
		trials int
		widths []int
	}{
		{64, 20000, []int{12, 16, 20}},
		{160, 15000, []int{16, 20, 24}},
		{1 << 11, 3000, []int{22, 26, 30}},
		{1 << 14, 600, []int{26, 30}},
	}
	type line struct{ a, b float64 }
	fits := make([]line, len(sizes))
	for si, sz := range sizes {
		g := prf.NewPRG(prf.Seed{0x0c, byte(si)})
		eqs := make([]equation, sz.n)
		var sw, swx, swy, swxx, swxy float64
		for _, w := range sz.widths {
			h := hintDims{slots: okvsSlots(sz.n, w), band: w}
			fails := 0
			for trial := 0; trial < sz.trials; trial++ {
				var d [24]byte
				for i := range eqs {
					g.Read(d[:])
					start, b := h.rowOf(&d)
					eqs[i] = equation{band: b, start: int32(start)}
				}
				if err := h.eliminate(eqs); err != nil {
					fails++
				}
			}
			p := float64(fails) / float64(sz.trials)
			if fails < 10 || p > 0.5 {
				t.Fatalf("n=%d w=%d: %d failures in %d trials is outside the range the fit can use", sz.n, w, fails, sz.trials)
			}
			lambda := -math.Log1p(-p)
			y := math.Log2(lambda)
			// Var(ln λ̂) ≈ p / (trials·(1 − p)·λ²) by the delta method.
			wt := float64(sz.trials) * (1 - p) * lambda * lambda / p
			x := float64(w)
			sw, swx, swy, swxx, swxy = sw+wt, swx+wt*x, swy+wt*y, swxx+wt*x*x, swxy+wt*x*y
			t.Logf("n=%-5d w=%d: %5d/%d failures, log₂λ = %6.2f", sz.n, w, fails, sz.trials, y)
		}
		slope := (sw*swxy - swx*swy) / (sw*swxx - swx*swx)
		fits[si] = line{a: (swy - slope*swx) / sw, b: -slope}
		t.Logf("n=%-5d: log₂λ ≈ %.2f − %.3f·w", sz.n, fits[si].a, fits[si].b)
	}
	at := func(l line, w float64) float64 { return l.a - l.b*w }
	big, mid := fits[len(fits)-1], fits[len(fits)-2]
	slope := min(big.b, mid.b)
	for si, f := range fits[:len(fits)-2] {
		if f.b < slope {
			t.Errorf("n=%d: slope %.3f is flatter than the large sets' %.3f; the extrapolation assumes it is not", sizes[si].n, f.b, slope)
		}
	}
	const w0 = 26 // a width both large sizes measured
	nBig, nMid := float64(sizes[len(sizes)-1].n), float64(sizes[len(sizes)-2].n)
	perDoubling := (at(big, w0) - at(mid, w0)) / math.Log2(nBig/nMid)
	est := at(big, w0) - slope*(bandBits-w0) + perDoubling*(23-math.Log2(nBig))
	t.Logf("ε = 1/%d, W = %d: slope %.3f, %.2f bits per doubling of n; log₂ failure at n = 2^23 ≈ %.1f", okvsInvEps, bandBits, slope, perDoubling, est)
	if est > -Sigma {
		t.Fatalf("encoding failure at n = 2^23 extrapolates to 2^%.1f, above 2^-%d", est, Sigma)
	}
}
