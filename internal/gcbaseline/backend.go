package gcbaseline

import (
	"fmt"

	"secyan/internal/gc"
	"secyan/internal/mpc"
)

// This file makes the GC baseline runnable as a real per-operator
// backend (not just the whole-query extrapolation of gcbaseline.go): an
// mpc.Party-driven semijoin alignment returning additive annotation
// shares compatible with the core operators. The circuit is monolithic
// in the SMCQL style — every comparison happens inside the circuit, so
// no PSI, no OEP and no hashing are needed — which is quadratic in the
// tuple counts and therefore only priced in by the planner at tiny
// cardinalities, where the fixed setup of the PSI-based path dominates.

// AlignCircuit compares every parent key against every child key and
// sums the matching child annotations per parent tuple. Evaluator
// (= parent holder) inputs, in order: per child tuple its share of the
// child annotation (ell bits), then per parent tuple its 64-bit key.
// Garbler-private bits per child tuple: the garbler's annotation share,
// then the child key. Garbler inputs per parent tuple: the output mask
// r_j. Output to the evaluator, per parent tuple: z_j - r_j where z_j
// is the annotation of the unique child tuple matching parent key j
// (or 0).
func AlignCircuit(m, n, ell int) *gc.Circuit {
	b := gc.NewBuilder()
	vs := make([]gc.Word, n)
	cks := make([][]gc.PBit, n)
	for i := 0; i < n; i++ {
		ve := b.EvalInputWord(ell)
		vg := b.PrivateWord(ell)
		vs[i] = b.AddPrivate(ve, vg)
		cks[i] = b.PrivateWord(64)
	}
	for j := 0; j < m; j++ {
		pk := b.EvalInputWord(64)
		var z gc.Word
		for i := 0; i < n; i++ {
			masked := b.ANDWordBit(vs[i], b.EqPrivate(pk, cks[i]))
			if i == 0 {
				z = masked
			} else {
				z = b.Add(z, masked)
			}
		}
		r := b.GarblerInputWord(ell)
		b.OutputWordToEval(b.Sub(z, r))
	}
	return b.Build()
}

// RunAlignEvaluator executes the alignment as the parent holder:
// parentKeys are its per-tuple join keys (plaintext to it), childShares
// its shares of the child annotations (zeros when the child is plain).
// It returns its shares of the aligned child annotations, one per
// parent tuple.
func RunAlignEvaluator(p *mpc.Party, parentKeys, childShares []uint64) ([]uint64, error) {
	m, n := len(parentKeys), len(childShares)
	ell := p.Ring.Bits
	circ := AlignCircuit(m, n, ell)
	evalBits := make([]bool, 0, n*ell+m*64)
	for _, v := range childShares {
		evalBits = gc.AppendBits(evalBits, v, ell)
	}
	for _, k := range parentKeys {
		evalBits = gc.AppendBits(evalBits, k, 64)
	}
	out, err := p.RunCircuit(circ, evalBits, nil, p.Role.Other())
	if err != nil {
		return nil, err
	}
	res := make([]uint64, m)
	for j := 0; j < m; j++ {
		res[j] = p.Ring.Mask(gc.UintOfBits(out[j*ell : (j+1)*ell]))
	}
	return res, nil
}

// RunAlignGarbler executes the alignment as the child holder: childKeys
// are the child's distinct join keys, childShares its annotation shares
// (the plaintext annotations when the child is plain), m the public
// parent size. It returns its shares of the aligned annotations.
func RunAlignGarbler(p *mpc.Party, childKeys, childShares []uint64, m int) ([]uint64, error) {
	if len(childKeys) != len(childShares) {
		return nil, fmt.Errorf("gcbaseline: %d keys with %d shares", len(childKeys), len(childShares))
	}
	n := len(childKeys)
	ell := p.Ring.Bits
	circ := AlignCircuit(m, n, ell)
	privBits := make([]bool, 0, n*(ell+64))
	for i := 0; i < n; i++ {
		privBits = gc.AppendBits(privBits, childShares[i], ell)
		privBits = gc.AppendBits(privBits, childKeys[i], 64)
	}
	res := make([]uint64, m)
	garblerBits := make([]bool, 0, m*ell)
	for j := 0; j < m; j++ {
		r := p.Ring.Random(p.PRG)
		res[j] = r
		garblerBits = gc.AppendBits(garblerBits, r, ell)
	}
	if _, err := p.RunCircuit(circ, garblerBits, privBits, p.Role); err != nil {
		return nil, err
	}
	return res, nil
}

// AlignCost predicts the total bytes (both directions) of one
// RunAlignEvaluator/RunAlignGarbler execution. The per-parent gadget is
// fixed by the child count, so Dims is affine in m and interpolation
// over the parent side is exact.
func AlignCost(m, n, ell int) int64 {
	if m == 0 {
		return 0
	}
	d := gc.InterpolateDims(func(mm int) *gc.Circuit { return AlignCircuit(mm, n, ell) }, m)
	return d.MessageCost()
}
