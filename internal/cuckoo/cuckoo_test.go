package cuckoo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"secyan/internal/prf"
)

func TestBuildPlacesEveryItem(t *testing.T) {
	g := prf.NewPRG(prf.Seed{1})
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{0, 1, 2, 10, 100, 1000} {
		items := make([]uint64, m)
		seen := map[uint64]bool{}
		for i := range items {
			for {
				v := rng.Uint64()
				if !seen[v] {
					items[i] = v
					seen[v] = true
					break
				}
			}
		}
		tab, err := Build(g, items)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if tab.B != NumBins(m) {
			t.Fatalf("m=%d: B=%d, want %d", m, tab.B, NumBins(m))
		}
		placed := 0
		for b := 0; b < tab.B; b++ {
			if idx := tab.Bins[b]; idx != -1 {
				placed++
				// The item must actually hash to this bin with its
				// recorded hash function.
				if BinOf(tab.Seed, tab.B, tab.Items[idx], int(tab.WhichHash[idx])) != b {
					t.Fatalf("m=%d: item %d recorded in wrong bin", m, idx)
				}
			}
		}
		if placed != m {
			t.Fatalf("m=%d: placed %d items", m, placed)
		}
	}
}

func TestBuildRejectsDuplicates(t *testing.T) {
	g := prf.NewPRG(prf.Seed{2})
	if _, err := Build(g, []uint64{5, 6, 5}); err == nil {
		t.Fatal("expected duplicate error")
	}
}

func TestBinItemAndBinOfItem(t *testing.T) {
	g := prf.NewPRG(prf.Seed{3})
	items := []uint64{10, 20, 30, 40, 50}
	tab, err := Build(g, items)
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint64]bool{}
	for b := 0; b < tab.B; b++ {
		if v, ok := tab.BinItem(b); ok {
			found[v] = true
			if tab.BinOfItem(tab.Bins[b]) != b {
				t.Fatalf("BinOfItem inconsistent for bin %d", b)
			}
			if BinOf(tab.Seed, tab.B, v, tab.BinHash(b)) != b {
				t.Fatalf("BinHash inconsistent for bin %d", b)
			}
		}
	}
	for _, v := range items {
		if !found[v] {
			t.Fatalf("item %d not found in any bin", v)
		}
	}
}

func TestNumBins(t *testing.T) {
	if NumBins(0) != 4 || NumBins(1) != 4 {
		t.Fatal("minimum bin count violated")
	}
	if NumBins(1000) != int(math.Ceil(1.27*1000)) {
		t.Fatalf("NumBins(1000) = %d", NumBins(1000))
	}
}

func TestBinOfInRangeAndDeterministic(t *testing.T) {
	seed := prf.Seed{9}
	for i := 0; i < 100; i++ {
		b := BinOf(seed, 37, uint64(i), i%3)
		if b < 0 || b >= 37 {
			t.Fatalf("bin %d out of range", b)
		}
		if b != BinOf(seed, 37, uint64(i), i%3) {
			t.Fatal("BinOf not deterministic")
		}
	}
}

// TestPropertyBuildAlwaysSucceedsOnRandomSets: with B = 1.27·m and three
// hash functions, building should essentially never fail for random
// distinct inputs (failure probability < 2^-σ per attempt, with rehash
// retries on top).
func TestPropertyBuildAlwaysSucceedsOnRandomSets(t *testing.T) {
	g := prf.NewPRG(prf.Seed{99})
	f := func(seed int64, mRaw uint16) bool {
		m := int(mRaw%300) + 1
		rng := rand.New(rand.NewSource(seed))
		items := make([]uint64, 0, m)
		seen := map[uint64]bool{}
		for len(items) < m {
			v := rng.Uint64() >> 3
			if !seen[v] {
				seen[v] = true
				items = append(items, v)
			}
		}
		tab, err := Build(g, items)
		if err != nil {
			return false
		}
		// Every item must be findable in one of its three bins.
		for _, x := range items {
			found := false
			for w := 0; w < NumHashes; w++ {
				b := BinOf(tab.Seed, tab.B, x, w)
				if v, ok := tab.BinItem(b); ok && v == x {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBinsOfMatchesBinOf pins the batched AES bin sweep to the scalar
// BinOf for every hash function — the receiver builds its table through
// the batched path while lookups use the scalar one, so any divergence
// silently empties the intersection.
func TestBinsOfMatchesBinOf(t *testing.T) {
	g := prf.NewPRG(prf.Seed{11})
	seed := g.Seed()
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = g.Uint64()
		}
		b := NumBins(n)
		out := make([]int, n)
		for w := 0; w < NumHashes; w++ {
			BinsOf(seed, b, xs, w, out)
			for i, x := range xs {
				if want := BinOf(seed, b, x, w); out[i] != want {
					t.Fatalf("n=%d which=%d item %d: batched bin %d != scalar %d", n, w, i, out[i], want)
				}
			}
		}
	}
}
