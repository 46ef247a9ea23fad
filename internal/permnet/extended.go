package permnet

import "fmt"

// Extended is the Mohassel–Sadeghian decomposition of an extended
// permutation ξ:[N]→[M] (output i receives input ξ(i), inputs may be
// duplicated or dropped) into
//
//	Pre (max(M,N) wires) → duplication chain (N wires) → Post (N wires)
//
// over a working vector of max(M, N) positions, of which the first N
// are the outputs. The duplication chain has one gate per wire j in
// [1, N): out[j] = b_j ? out[j-1] : in[j]. An extended permutation with
// no outputs has no gates at all.
type Extended struct {
	M, N int // inputs, outputs
	Pre  *Network
	Post *Network
}

// NewExtended builds the (public) topology for extended permutations from
// M inputs to N outputs.
func NewExtended(m, n int) *Extended {
	k := max(m, n)
	if n == 0 {
		k = 0
	}
	pre := New(k)
	post := pre // an equal width shares the topology, read-only
	if k != n {
		post = New(n)
	}
	return &Extended{M: m, N: n, Pre: pre, Post: post}
}

// NumGates returns the length of a program: Pre ‖ duplication ‖ Post.
func (e *Extended) NumGates() int {
	return len(e.Pre.Swaps) + max(e.N-1, 0) + len(e.Post.Swaps)
}

// Route computes the control bits realizing ξ = xi (len N, values in
// [0,M)), in gate order: Pre's, then duplication gate j at index
// len(Pre.Swaps)+j−1, then Post's.
func (e *Extended) Route(xi []int) ([]bool, error) {
	m, n, k := e.M, e.N, e.Pre.Size
	if len(xi) != n {
		return nil, fmt.Errorf("permnet: extended route got %d outputs, want %d", len(xi), n)
	}
	for _, s := range xi {
		if s < 0 || s >= m {
			return nil, fmt.Errorf("permnet: extended route source %d out of [0,%d)", s, m)
		}
	}
	out := make([]bool, e.NumGates())
	if n == 0 {
		return out, nil
	}
	pre := len(e.Pre.Swaps)
	preBits, dup, postBits := out[:pre], out[pre:pre+n-1], out[pre+n-1:]

	// Counting-sort the outputs by (source, index): duplicates of one
	// source become consecutive wires so the duplication chain can copy.
	// start[s] is the wire of source s's first copy.
	start := make([]int32, m+1)
	for _, s := range xi {
		start[s+1]++
	}
	for s := 0; s < m; s++ {
		start[s+1] += start[s]
	}
	r := newRouter(k)
	preDest := r.dest[:k]
	for s := range preDest {
		preDest[s] = -1
		if s < m && start[s+1] > start[s] {
			// Pre delivers source s to its first copy's wire; the
			// duplication gates after it copy from the previous wire.
			preDest[s] = start[s]
			for j := start[s] + 1; j < start[s+1]; j++ {
				dup[j-1] = true
			}
		}
	}
	// Route unused inputs (sources never referenced, plus padding inputs
	// M..N-1) to the remaining wires in order: the copies, then the wires
	// past N.
	free := 1
	for s, d := range preDest {
		if d >= 0 {
			continue
		}
		for free < n && !dup[free-1] {
			free++
		}
		preDest[s] = int32(free)
		free++
	}
	r.route(preBits, preDest)

	// Post routes sorted wire j to the output it feeds.
	postDest := r.dest[:n]
	for i, s := range xi {
		postDest[start[s]] = int32(i)
		start[s]++
	}
	r.route(postBits, postDest)
	return out, nil
}

// Apply evaluates the extended network in plaintext: input is padded to
// max(M, N), the three stages run in order, and the first N positions are
// returned. Used by tests as the reference semantics for the oblivious
// protocol.
func (e *Extended) Apply(bits []bool, input []uint64) ([]uint64, error) {
	if len(input) != e.M {
		return nil, fmt.Errorf("permnet: Apply got %d inputs, want %d", len(input), e.M)
	}
	if len(bits) != e.NumGates() {
		return nil, fmt.Errorf("permnet: Apply got %d bits for %d gates", len(bits), e.NumGates())
	}
	vec := make([]uint64, max(e.M, e.N))
	copy(vec, input)
	pre := len(e.Pre.Swaps)
	e.Pre.Apply(bits[:pre], vec[:e.Pre.Size])
	for j := 1; j < e.N; j++ {
		if bits[pre+j-1] {
			vec[j] = vec[j-1]
		}
	}
	e.Post.Apply(bits[pre+max(e.N-1, 0):], vec[:e.N])
	return vec[:e.N], nil
}
