package permnet

import (
	"fmt"
	"sort"
)

// Extended is the Mohassel–Sadeghian decomposition of an extended
// permutation ξ:[N]→[M] (output i receives input ξ(i), inputs may be
// duplicated or dropped) into
//
//	Pre (Beneš) → duplication chain → Post (Beneš)
//
// over a working vector of width W = 2^⌈log₂ max(M,N,2)⌉. The duplication
// chain has one gate per position j ≥ 1: out[j] = b_j ? out[j-1] : in[j].
type Extended struct {
	M, N int // inputs, outputs
	W    int // working width (power of two)
	Pre  *Network
	Post *Network
}

// Program is the set of control bits realizing one concrete ξ on an
// Extended network. DupBits[j-1] controls duplication gate j.
type Program struct {
	PreBits  []bool
	DupBits  []bool
	PostBits []bool
}

// NewExtended builds the (public) topology for extended permutations from
// M inputs to N outputs.
func NewExtended(m, n int) *Extended {
	w := CeilPow2(maxInt(maxInt(m, n), 2))
	net := New(w)
	// Pre and Post have identical topology; they are shared read-only.
	return &Extended{M: m, N: n, W: w, Pre: net, Post: net}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Route computes the control bits realizing ξ = xi (len N, values in
// [0,M)).
func (e *Extended) Route(xi []int) (*Program, error) {
	if len(xi) != e.N {
		return nil, fmt.Errorf("permnet: extended route got %d outputs, want %d", len(xi), e.N)
	}
	for _, s := range xi {
		if s < 0 || s >= e.M {
			return nil, fmt.Errorf("permnet: extended route source %d out of [0,%d)", s, e.M)
		}
	}
	// Sort output indices by (source, index): duplicates of the same
	// source become consecutive wires so the duplication chain can copy.
	seq := make([]int, e.N)
	for i := range seq {
		seq[i] = i
	}
	sort.Slice(seq, func(a, b int) bool {
		if xi[seq[a]] != xi[seq[b]] {
			return xi[seq[a]] < xi[seq[b]]
		}
		return seq[a] < seq[b]
	})

	dup := make([]bool, e.W-1)
	preDest := make([]int, e.W)
	for i := range preDest {
		preDest[i] = -1
	}
	wireUsed := make([]bool, e.W)
	for j := 0; j < e.N; j++ {
		if j == 0 || xi[seq[j]] != xi[seq[j-1]] {
			// First copy of this source: the Pre network must deliver the
			// source input to wire j; the duplication gate takes the fresh
			// value.
			preDest[xi[seq[j]]] = j
			wireUsed[j] = true
		} else {
			dup[j-1] = true // copy from the previous wire
		}
	}
	// Route unused inputs (sources never referenced, plus padding inputs
	// M..W-1) to the remaining wires in order.
	free := 0
	for p := 0; p < e.W; p++ {
		if preDest[p] != -1 {
			continue
		}
		for wireUsed[free] {
			free++
		}
		preDest[p] = free
		wireUsed[free] = true
	}

	postDest := make([]int, e.W)
	outUsed := make([]bool, e.W)
	for j := 0; j < e.N; j++ {
		postDest[j] = seq[j]
		outUsed[seq[j]] = true
	}
	free = 0
	for j := e.N; j < e.W; j++ {
		for outUsed[free] {
			free++
		}
		postDest[j] = free
		outUsed[free] = true
	}

	preBits, err := e.Pre.Route(preDest)
	if err != nil {
		return nil, fmt.Errorf("permnet: pre stage: %w", err)
	}
	postBits, err := e.Post.Route(postDest)
	if err != nil {
		return nil, fmt.Errorf("permnet: post stage: %w", err)
	}
	return &Program{PreBits: preBits, DupBits: dup, PostBits: postBits}, nil
}

// Apply evaluates the extended network in plaintext: input is padded to W,
// the three stages run in order, and the first N positions are returned.
// Used by tests as the reference semantics for the oblivious protocol.
func (e *Extended) Apply(p *Program, input []uint64) ([]uint64, error) {
	if len(input) != e.M {
		return nil, fmt.Errorf("permnet: Apply got %d inputs, want %d", len(input), e.M)
	}
	vec := make([]uint64, e.W)
	copy(vec, input)
	e.Pre.Apply(p.PreBits, vec)
	for j := 1; j < e.W; j++ {
		if p.DupBits[j-1] {
			vec[j] = vec[j-1]
		}
	}
	e.Post.Apply(p.PostBits, vec)
	return vec[:e.N], nil
}
