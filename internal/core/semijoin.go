package core

import (
	"encoding/binary"
	"fmt"

	"secyan/internal/gc"
	"secyan/internal/gcbaseline"
	"secyan/internal/mpc"
	"secyan/internal/oep"
	"secyan/internal/psi"
	"secyan/internal/relation"
)

// This file implements the oblivious semijoin operators of paper §6.2.
//
// SemijoinInto computes R = R_F ⋈^⊗ R_{F'} under the reduce-phase
// constraint F' ⊆ F: the output has exactly the parent's tuples, and the
// annotation of parent tuple t becomes ⟦v(t) ⊗ z⟧ where z is the
// annotation of the unique child tuple joining with t (or 0). Two
// implementations are selected automatically:
//
//   - cross-party (paper §6.2 main protocol): PSI with secret-shared
//     payloads aligns child annotations to the parent holder's cuckoo
//     bins, an OEP maps bins to parent tuples, and an OT batch
//     multiplies (mulShares);
//   - same-party (paper §6.2 last paragraph): the holder pairs tuples
//     locally, one OEP replaces the PSI, and the same batch multiplies.
//
// Semijoin computes the general R_F ⋉^⊗ R_{F'} by first applying the
// oblivious π¹ to the child (§6.2: R_F ⋈^⊗ π¹_{F∩F'}(R_{F'})).

// mulOTs and mulMsgLen are the dimensions of mulShares' one OT batch: a
// 1-out-of-2 OT per bit of both of the receiver's shares of every pair,
// with ℓ-bit messages.
func mulOTs(n, ell int) int { return 2 * n * ell }
func mulMsgLen(ell int) int { return (ell + 7) / 8 }

// mulShares multiplies aligned share vectors: the result is a fresh
// sharing of a_i ⊗ b_i. Each party multiplies its own two shares
// locally; the two cross terms of (a₀+a₁)(b₀+b₁) go through one OT batch
// (Gilboa): for bit k of recvRole's share of b the other party offers
// (r, r + a·2^k) for a fresh random r, so the chosen messages sum to
// a·b_recv + Σr while the sender keeps −Σr, and likewise for the bits of
// recvRole's share of a against the sender's b. The sender's r's make
// its output share uniform, hence the sharing fresh. Message assembly
// strides in chunks; the single batch is the protocol's wire contract
// and stays whole.
func mulShares(p *mpc.Party, aShares, bShares []uint64, recvRole mpc.Role, chunk int) ([]uint64, error) {
	if len(aShares) != len(bShares) {
		return nil, fmt.Errorf("core: mulShares length mismatch %d vs %d", len(aShares), len(bShares))
	}
	n := len(aShares)
	if n == 0 {
		return nil, nil
	}
	ring := p.Ring
	ell, msgLen := ring.Bits, mulMsgLen(ring.Bits)
	res := make([]uint64, n)
	if p.Role == recvRole {
		rcv, err := p.OTReceiver()
		if err != nil {
			return nil, err
		}
		choices := make([]bool, 0, mulOTs(n, ell))
		relation.Range(n, chunk, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				choices = gc.AppendBits(choices, bShares[i], ell)
				choices = gc.AppendBits(choices, aShares[i], ell)
			}
			return nil
		})
		msgs, err := rcv.Receive(choices, msgLen)
		if err != nil {
			return nil, err
		}
		var word [8]byte
		relation.Range(n, chunk, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				sum := aShares[i] * bShares[i]
				for _, m := range msgs[2*ell*i : 2*ell*(i+1)] {
					copy(word[:], m)
					sum += binary.LittleEndian.Uint64(word[:])
				}
				res[i] = ring.Mask(sum)
			}
			return nil
		})
		return res, nil
	}
	snd, err := p.OTSender()
	if err != nil {
		return nil, err
	}
	pairs := make([][2][]byte, mulOTs(n, ell))
	back := make([]byte, 2*len(pairs)*msgLen)
	var word [8]byte
	relation.Range(n, chunk, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			sum := aShares[i] * bShares[i]
			for half, x := range [2]uint64{aShares[i], bShares[i]} {
				for k := 0; k < ell; k++ {
					j := (2*i+half)*ell + k
					r := ring.Random(p.PRG)
					sum -= r
					for c, v := range [2]uint64{r, ring.Mask(r + x<<uint(k))} {
						binary.LittleEndian.PutUint64(word[:], v)
						pairs[j][c] = back[(2*j+c)*msgLen : (2*j+c+1)*msgLen]
						copy(pairs[j][c], word[:])
					}
				}
			}
			res[i] = ring.Mask(sum)
		}
		return nil
	})
	if err := snd.Send(pairs); err != nil {
		return nil, err
	}
	return res, nil
}

// childKeys extracts the child relation's single-uint64 keys over all its
// attributes and verifies they are distinct (guaranteed when the child
// went through an oblivious aggregation, which the reduce phase ensures).
func childKeys(rel *relation.Relation, chunk int) ([]uint64, error) {
	cols := make([]int, len(rel.Schema.Attrs))
	for i := range cols {
		cols[i] = i
	}
	keys := make([]uint64, rel.Len())
	seen := make(map[uint64]bool, rel.Len())
	if err := relation.Range(rel.Len(), chunk, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			k := rel.Key(i, cols)
			if seen[k] {
				return fmt.Errorf("core: child relation has duplicate join key %d; aggregate it first", k)
			}
			seen[k] = true
			keys[i] = k
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return keys, nil
}

// SemijoinInto computes parent ⋈^⊗ child with child.Schema ⊆
// parent.Schema (paper §6.2). The result keeps the parent's tuples and
// holder; only the annotation shares change.
func SemijoinInto(p *mpc.Party, dg *relation.DummyGen, parent, child *SharedRelation) (*SharedRelation, error) {
	return semijoinIntoChunked(p, dg, parent, child, 0, "")
}

// semijoinIntoChunked is SemijoinInto with an explicit tuple-plane chunk
// size (0 = the default, negative = unbounded) and backend. The
// backend selects the cross-party alignment protocol only; the
// degenerate and same-party cases have a single implementation, and an
// empty backend means the default PSI pipeline.
func semijoinIntoChunked(p *mpc.Party, dg *relation.DummyGen, parent, child *SharedRelation, chunk int, backend BackendID) (*SharedRelation, error) {
	for _, a := range child.Schema.Attrs {
		if !parent.Schema.Has(a) {
			return nil, fmt.Errorf("core: SemijoinInto requires child attrs ⊆ parent attrs (missing %q)", a)
		}
	}
	var zShares []uint64
	var err error
	switch {
	case child.N == 0:
		// An empty child annihilates every parent annotation: multiply by
		// a (trivial) sharing of zero, refreshed by the multiplication.
		zShares = make([]uint64, parent.N)
	case len(child.Schema.Attrs) == 0:
		// Scalar child (no attributes): by construction of the oblivious
		// aggregation, the single real tuple sits at the last position —
		// public knowledge — so a constant-programmed OEP aligns it.
		zShares, err = alignScalar(p, parent, child)
	case parent.Holder == child.Holder:
		zShares, err = alignSameParty(p, dg, parent, child, chunk)
	case backend == BackendGC:
		zShares, err = alignGC(p, parent, child, chunk)
	case child.Plain:
		// §6.5: the child holder knows its annotations, so the cheaper
		// plain-payload PSI replaces the secret-shared-payload protocol.
		zShares, err = alignCrossPartyPlain(p, dg, parent, child, chunk)
	default:
		zShares, err = alignCrossParty(p, dg, parent, child, chunk)
	}
	if err != nil {
		return nil, err
	}
	newAnnot, err := mulShares(p, parent.Annot, zShares, parent.Holder, chunk)
	if err != nil {
		return nil, err
	}
	return &SharedRelation{Holder: parent.Holder, Schema: parent.Schema, N: parent.N,
		Rel: parent.Rel, Annot: newAnnot}, nil
}

// alignScalar broadcasts the last child annotation (the grand aggregate
// of an attribute-less child) to every parent position.
func alignScalar(p *mpc.Party, parent, child *SharedRelation) ([]uint64, error) {
	if p.Role != parent.Holder {
		return oep.RunHelper(p, child.N, parent.N, child.Annot)
	}
	xi := make([]int, parent.N)
	for j := range xi {
		xi[j] = child.N - 1
	}
	return oep.RunProgrammer(p, xi, child.N, child.Annot)
}

// alignSameParty aligns child annotation shares to parent tuples when one
// party holds both relations: the holder pairs each parent tuple with its
// unique matching child tuple (or a virtual dummy at index N_child) and a
// single extended OEP re-shares the child annotations in parent order.
func alignSameParty(p *mpc.Party, dg *relation.DummyGen, parent, child *SharedRelation, chunk int) ([]uint64, error) {
	m := parent.N
	ext := make([]uint64, child.N+1)
	copy(ext, child.Annot) // the extra slot is a shared zero (0,0)
	if p.Role != parent.Holder {
		return oep.RunHelper(p, child.N+1, m, ext)
	}
	keys, err := childKeys(child.Rel, chunk)
	if err != nil {
		return nil, err
	}
	idx := make(map[uint64]int, len(keys))
	for i, k := range keys {
		idx[k] = i
	}
	cols, err := parent.Schema.Positions(child.Schema.Attrs)
	if err != nil {
		return nil, err
	}
	xi := make([]int, m)
	relation.Range(m, chunk, func(lo, hi int) error {
		for j := lo; j < hi; j++ {
			if i, ok := idx[parent.Rel.Key(j, cols)]; ok {
				xi[j] = i
			} else {
				xi[j] = child.N // dummy slot
			}
		}
		return nil
	})
	return oep.RunProgrammer(p, xi, child.N+1, ext)
}

// parentKeysForPSI builds the receiver-side PSI input: the distinct
// child-attribute keys of the parent, padded with dummies to the public
// size, plus the per-tuple key lookup.
func parentKeysForPSI(parent, child *SharedRelation, dg *relation.DummyGen, chunk int) (xs, keyOf []uint64, err error) {
	cols, err := parent.Schema.Positions(child.Schema.Attrs)
	if err != nil {
		return nil, nil, err
	}
	m := parent.N
	xs = make([]uint64, 0, m)
	seen := make(map[uint64]bool, m)
	keyOf = make([]uint64, m)
	relation.Range(m, chunk, func(lo, hi int) error {
		for j := lo; j < hi; j++ {
			k := parent.Rel.Key(j, cols)
			keyOf[j] = k
			if !seen[k] {
				seen[k] = true
				xs = append(xs, k)
			}
		}
		return nil
	})
	for len(xs) < m {
		xs = append(xs, dg.Next())
	}
	return xs, keyOf, nil
}

// binAlignment maps every parent tuple to the cuckoo bin holding its key
// and runs the extended OEP over the per-bin payload shares.
func binAlignment(p *mpc.Party, res *psi.Result, keyOf []uint64) ([]uint64, error) {
	binOf := make(map[uint64]int, len(res.Table.Items))
	for i := range res.Table.Items {
		binOf[res.Table.Items[i]] = res.Table.BinOfItem(i)
	}
	xi := make([]int, len(keyOf))
	for j, k := range keyOf {
		b, ok := binOf[k]
		if !ok {
			return nil, fmt.Errorf("core: parent key missing from cuckoo table")
		}
		xi[j] = b
	}
	return oep.RunProgrammer(p, xi, res.Params.B, res.PayShares)
}

// alignCrossPartyPlain is the §6.5 fast path: the child's annotations are
// plaintext to its holder. Two plain-payload strategies exist and the
// cheaper one is chosen from public parameters (plainPSIDirect): carrying
// the ℓ-bit payload directly through the PSI's hint and circuit, or the
// indexed construction of §5.5 with the first OEP replaced by the
// sender's free local shuffle.
func alignCrossPartyPlain(p *mpc.Party, dg *relation.DummyGen, parent, child *SharedRelation, chunk int) ([]uint64, error) {
	m := parent.N
	direct := plainPSIDirect(m, child.N, p.Ring.Bits)
	if p.Role != parent.Holder {
		keys, err := childKeys(child.Rel, chunk)
		if err != nil {
			return nil, err
		}
		var res *psi.Result
		if direct {
			res, err = psi.RunSender(p, keys, child.Annot, m)
		} else {
			res, err = psi.RunIndexedPlainSender(p, keys, child.Annot, m)
		}
		if err != nil {
			return nil, err
		}
		return oep.RunHelper(p, res.Params.B, m, res.PayShares)
	}
	xs, keyOf, err := parentKeysForPSI(parent, child, dg, chunk)
	if err != nil {
		return nil, err
	}
	var res *psi.Result
	if direct {
		res, err = psi.RunReceiver(p, xs, child.N)
	} else {
		res, err = psi.RunIndexedPlainReceiver(p, xs, child.N)
	}
	if err != nil {
		return nil, err
	}
	return binAlignment(p, res, keyOf)
}

// alignGC is the monolithic-GC backend's cross-party alignment: a
// single quadratic circuit compares every parent key against every
// child key and emits fresh shares of the matching child annotation per
// parent tuple. Works for plain and shared child annotations alike —
// each side feeds its Annot vector (the non-holder's is all zeros when
// the child is plain), and the circuit reconstructs the sum.
func alignGC(p *mpc.Party, parent, child *SharedRelation, chunk int) ([]uint64, error) {
	if p.Role != parent.Holder {
		keys, err := childKeys(child.Rel, chunk)
		if err != nil {
			return nil, err
		}
		return gcbaseline.RunAlignGarbler(p, keys, child.Annot, parent.N)
	}
	cols, err := parent.Schema.Positions(child.Schema.Attrs)
	if err != nil {
		return nil, err
	}
	m := parent.N
	parentKeys := make([]uint64, m)
	relation.Range(m, chunk, func(lo, hi int) error {
		for j := lo; j < hi; j++ {
			parentKeys[j] = parent.Rel.Key(j, cols)
		}
		return nil
	})
	return gcbaseline.RunAlignEvaluator(p, parentKeys, child.Annot)
}

// alignCrossParty aligns child annotation shares to parent tuples across
// parties: PSI with secret-shared payloads (paper §5.5) delivers per-bin
// shares of the matching child annotation, and an extended OEP programmed
// by the parent holder maps bins to parent tuple positions.
func alignCrossParty(p *mpc.Party, dg *relation.DummyGen, parent, child *SharedRelation, chunk int) ([]uint64, error) {
	m := parent.N
	if p.Role != parent.Holder {
		// Child holder: PSI sender, then OEP helper.
		keys, err := childKeys(child.Rel, chunk)
		if err != nil {
			return nil, err
		}
		res, err := psi.RunSharedPayloadSender(p, keys, child.Annot, m)
		if err != nil {
			return nil, err
		}
		return oep.RunHelper(p, res.Params.B, m, res.PayShares)
	}
	// Parent holder: build X = the distinct child-attribute keys of the
	// parent, padded with dummies to the public size m.
	xs, keyOf, err := parentKeysForPSI(parent, child, dg, chunk)
	if err != nil {
		return nil, err
	}
	res, err := psi.RunSharedPayloadReceiver(p, xs, child.N, child.Annot)
	if err != nil {
		return nil, err
	}
	return binAlignment(p, res, keyOf)
}

// Semijoin computes the oblivious R = target ⋉^⊗ by (paper §6.2, second
// type): the target's tuples keep their annotations where they join a
// nonzero-annotated tuple of `by`, and become shares of zero otherwise.
// It decomposes as target ⋈^⊗ π¹_{F∩F'}(by).
func Semijoin(p *mpc.Party, dg *relation.DummyGen, target, by *SharedRelation) (*SharedRelation, error) {
	// An empty intersection degenerates to a scalar existence test, which
	// ProjectOne and SemijoinInto handle via the attribute-less path.
	shared := target.Schema.Intersect(by.Schema)
	ind, err := ProjectOne(p, dg, by, shared)
	if err != nil {
		return nil, err
	}
	return SemijoinInto(p, dg, target, ind)
}
