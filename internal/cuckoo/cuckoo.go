// Package cuckoo implements the hashing substrate of the circuit-based PSI
// protocol (paper §5.3): 3-function cuckoo hashing with B = 1.27·M bins
// for the receiver, and the binomial bin-load bound used to pad the
// sender's simple-hashed bins so that overflow probability stays below
// 2^-σ.
package cuckoo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"secyan/internal/obs"
	"secyan/internal/prf"
)

// Cuckoo-hashing metrics. Rehashes should stay at (or near) zero — each
// retry has probability < 2^-σ for σ=40-sized tables — so a nonzero
// rehash counter in a metrics snapshot is itself a signal. Collection is
// off until obs.Enable.
var (
	mBuilds   = obs.NewCounter("secyan_cuckoo_builds_total", "Cuckoo tables built successfully.")
	mRehashes = obs.NewCounter("secyan_cuckoo_rehashes_total", "Full-table rehash retries after a failed insertion walk.")
	mKicks    = obs.NewHistogram("secyan_cuckoo_kicks", "Eviction kicks per successful table build.")
)

// NumHashes is the number of cuckoo hash functions (paper §5.3 uses 3).
const NumHashes = 3

// BinExpansion is the bin-count factor relative to the set size; the paper
// notes B = 1.27·M suffices in practice for 3-hash cuckoo hashing.
const BinExpansion = 1.27

// ErrTooManyDuplicates reports that the input multiset cannot be cuckoo
// hashed because some value repeats.
var ErrTooManyDuplicates = errors.New("cuckoo: input contains duplicate values")

// NumBins returns the public bin count for a set of size m. It depends
// only on m, never on the set contents, as obliviousness requires.
func NumBins(m int) int {
	b := int(math.Ceil(BinExpansion * float64(m)))
	if b < 4 {
		b = 4
	}
	return b
}

// KeyBlock builds the fixed-key AES input block for element x under seed:
// the 128-bit seed with x folded into its low 8 bytes. Distinct elements
// give distinct blocks for any seed, and the random per-table seed makes
// the bin assignment (and the PSI's hint rows, which hash the same block
// under their own tweak) fresh per build.
func KeyBlock(seed prf.Seed, x uint64) prf.Block {
	k := prf.Block(seed)
	binary.LittleEndian.PutUint64(k[:8],
		binary.LittleEndian.Uint64(k[:8])^x)
	return k
}

// binOfHash reduces one MMO digest to a bin index.
func binOfHash(h prf.Block, b int) int {
	return int(binary.LittleEndian.Uint64(h[:8]) % uint64(b))
}

// BinOf returns hash function `which` (0..2) of x over b bins, keyed by
// seed: the fixed-key AES MMO hash of KeyBlock(seed, x) under the PSI
// tweak domain, with `which` as the tweak. Both parties evaluate it on
// their own sets, so it must be cheap and deterministic.
func BinOf(seed prf.Seed, b int, x uint64, which int) int {
	return binOfHash(prf.HashBlock(KeyBlock(seed, x), prf.SitePSI|uint64(which)), b)
}

// BinsOf computes BinOf for every element of xs under one hash function
// in a single batched AES sweep, writing the bin indices into out
// (len(out) must be at least len(xs)). The PSI sender's simple hashing
// and the cuckoo build's candidate table use it to amortize the
// fixed-key cipher calls across whole sets.
func BinsOf(seed prf.Seed, b int, xs []uint64, which int, out []int) {
	var blk [64]prf.Block
	for base := 0; base < len(xs); base += len(blk) {
		n := len(xs) - base
		if n > len(blk) {
			n = len(blk)
		}
		for k := 0; k < n; k++ {
			blk[k] = KeyBlock(seed, xs[base+k])
		}
		prf.HashBlocks(blk[:n], blk[:n], prf.SitePSI|uint64(which), 0)
		for k := 0; k < n; k++ {
			out[base+k] = binOfHash(blk[k], b)
		}
	}
}

// Table is a built cuckoo table: every inserted item occupies exactly one
// of its three candidate bins.
type Table struct {
	B     int      // number of bins
	Seed  prf.Seed // seed of the three hash functions, shared with the peer
	Items []uint64 // the inserted items
	// Bins[b] is the index into Items occupying bin b, or -1 if empty.
	Bins []int
	// WhichHash[i] records which hash function (0..2) placed Items[i].
	WhichHash []uint8
}

// maxAttempts bounds the number of full rehashes before giving up; each
// rehash failure has probability < 2^-σ for σ=40-sized tables, so hitting
// this bound indicates a bug or adversarial input rather than bad luck.
const maxAttempts = 32

// Build cuckoo-hashes items (which must be distinct) into NumBins(len)
// bins, retrying with fresh hash seeds on failure. g supplies the seeds
// and eviction randomness.
func Build(g *prf.PRG, items []uint64) (*Table, error) {
	seen := make(map[uint64]struct{}, len(items))
	for _, x := range items {
		if _, dup := seen[x]; dup {
			return nil, fmt.Errorf("%w: %d", ErrTooManyDuplicates, x)
		}
		seen[x] = struct{}{}
	}
	b := NumBins(len(items))
	var cand [NumHashes][]int
	for w := range cand {
		cand[w] = make([]int, len(items))
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			mRehashes.Inc()
		}
		t := &Table{
			B:         b,
			Seed:      g.Seed(),
			Items:     items,
			Bins:      make([]int, b),
			WhichHash: make([]uint8, len(items)),
		}
		// All candidate bins of the attempt's seed in three batched AES
		// sweeps; the random-walk insertion below then only does table
		// lookups.
		for w := range cand {
			BinsOf(t.Seed, b, items, w, cand[w])
		}
		if kicks, ok := t.tryBuild(g, &cand); ok {
			mBuilds.Inc()
			mKicks.Observe(int64(kicks))
			return t, nil
		}
	}
	return nil, fmt.Errorf("cuckoo: failed to build table for %d items after %d rehashes", len(items), maxAttempts)
}

func (t *Table) tryBuild(g *prf.PRG, cand *[NumHashes][]int) (int, bool) {
	for i := range t.Bins {
		t.Bins[i] = -1
	}
	// Random-walk insertion; the kick budget is generous because a failed
	// attempt only costs a rehash.
	maxKicks := 100 + 10*len(t.Items)
	kicks := 0
	for i := range t.Items {
		cur := i
		which := uint8(g.Uint64n(NumHashes))
		for {
			bin := cand[which][cur]
			prev := t.Bins[bin]
			t.Bins[bin] = cur
			t.WhichHash[cur] = which
			if prev == -1 {
				break
			}
			cur = prev
			// Kick the evicted item to one of its other two bins.
			which = (t.WhichHash[cur] + 1 + uint8(g.Uint64n(NumHashes-1))) % NumHashes
			kicks++
			if kicks > maxKicks {
				return kicks, false
			}
		}
	}
	return kicks, true
}

// BinItem returns the item in bin b and true, or 0 and false if empty.
func (t *Table) BinItem(b int) (uint64, bool) {
	if t.Bins[b] == -1 {
		return 0, false
	}
	return t.Items[t.Bins[b]], true
}

// BinHash returns which hash function placed the item of bin b (0..2);
// undefined for empty bins.
func (t *Table) BinHash(b int) int {
	return int(t.WhichHash[t.Bins[b]])
}

// BinOfItem returns the bin occupied by Items[i].
func (t *Table) BinOfItem(i int) int {
	return BinOf(t.Seed, t.B, t.Items[i], int(t.WhichHash[i]))
}

// MaxBinLoad returns the smallest per-bin capacity L such that throwing
// nBalls balls independently into b bins exceeds L in some bin with
// probability below 2^-sigma. It uses the multiplicative Chernoff bound
//
//	P[Bin(n, 1/b) ≥ L] ≤ exp(-μ) (eμ/L)^L,  μ = n/b,
//
// union-bounded over the b bins. The sender of the PSI protocol pads every
// bin to exactly L entries so that its message sizes depend only on public
// parameters.
func MaxBinLoad(nBalls, b, sigma int) int {
	if nBalls == 0 || b == 0 {
		return 1
	}
	mu := float64(nBalls) / float64(b)
	target := -float64(sigma)*math.Ln2 - math.Log(float64(b))
	l := int(math.Ceil(mu))
	if l < 1 {
		l = 1
	}
	for ; ; l++ {
		fl := float64(l)
		if fl <= mu {
			continue
		}
		logBound := -mu + fl*(1+math.Log(mu)-math.Log(fl))
		if logBound <= target {
			return l
		}
		if l > nBalls {
			return nBalls // can never exceed the total number of balls
		}
	}
}
