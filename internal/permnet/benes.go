// Package permnet builds and routes Beneš permutation networks and the
// Mohassel–Sadeghian decomposition of *extended* permutations
// (permutation + duplication + permutation). These networks are the
// combinatorial core of the oblivious extended permutation protocol of
// paper §5.4: each conditional-swap or duplication gate becomes one
// 1-out-of-2 OT in package oep, so the entire OEP costs O(W log W)
// symmetric operations for width W.
//
// Conventions: a network of size W (a power of two) operates on a vector
// of W positions by applying its gates in order. Routing a permutation
// dest (meaning output position dest[i] receives input i) produces one
// control bit per gate.
package permnet

import "fmt"

// Network is a Beneš network: a fixed sequence of conditional swap gates
// over vector positions. The gate sequence depends only on Size, so both
// parties of an oblivious protocol construct identical networks.
type Network struct {
	Size  int        // vector width, a power of two (≥ 1)
	Swaps [][2]int32 // gates in evaluation order
}

// CeilPow2 returns the smallest power of two ≥ n (and ≥ 1).
func CeilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// BenesSwaps returns the swap-gate count of a Beneš network of width w
// (a power of two): w·log₂w − w/2, zero for w = 1. New presizes its gate
// list from it, and package oep's closed-form gate counts build on it.
func BenesSwaps(w int) int {
	k := 0
	for 1<<k < w {
		k++
	}
	return w*k - w/2
}

// New builds the Beneš network topology for a width-size vector; size must
// be a power of two.
func New(size int) *Network {
	if size < 1 || size&(size-1) != 0 {
		// Every size is CeilPow2 of public set sizes (oep.buildPlan) or a
		// caller's constant; none is read off the wire.
		panic(fmt.Sprintf("permnet: size %d is not a power of two", size))
	}
	return &Network{Size: size, Swaps: appendGates(make([][2]int32, 0, BenesSwaps(size)), size, 0)}
}

// appendGates appends the gates of the Beneš subnetwork over positions
// [off, off+n) in the order walk emits them: the input layer, the top
// and bottom subnetworks, the output layer. The positions depend on n
// alone, so no permutation is routed to find them.
func appendGates(swaps [][2]int32, n, off int) [][2]int32 {
	if n == 1 {
		return swaps
	}
	half := n / 2
	for k := 0; k < half; k++ {
		swaps = append(swaps, [2]int32{int32(off + k), int32(off + k + half)})
	}
	if n == 2 {
		return swaps
	}
	swaps = appendGates(swaps, half, off)
	swaps = appendGates(swaps, half, off+half)
	for k := 0; k < half; k++ {
		swaps = append(swaps, [2]int32{int32(off + k), int32(off + k + half)})
	}
	return swaps
}

// NumSwaps returns the gate count.
func (nw *Network) NumSwaps() int { return len(nw.Swaps) }

// Route computes the control bits realizing the permutation dest
// (output dest[i] receives input i). len(dest) must equal Size and dest
// must be a bijection.
func (nw *Network) Route(dest []int) ([]bool, error) {
	if len(dest) != nw.Size {
		return nil, fmt.Errorf("permnet: Route got %d destinations for size-%d network", len(dest), nw.Size)
	}
	seen := make([]bool, nw.Size)
	for _, d := range dest {
		if d < 0 || d >= nw.Size || seen[d] {
			return nil, fmt.Errorf("permnet: dest is not a permutation")
		}
		seen[d] = true
	}
	bits := make([]bool, 0, len(nw.Swaps))
	cp := make([]int, len(dest))
	copy(cp, dest)
	walk(nw.Size, 0, cp, func(p, q int, bit bool) {
		bits = append(bits, bit)
	})
	if len(bits) != len(nw.Swaps) {
		return nil, fmt.Errorf("permnet: internal error: %d bits for %d gates", len(bits), len(nw.Swaps))
	}
	return bits, nil
}

// Apply runs the network over vec in place using the given control bits.
// It is the plaintext reference used by tests and by local (non-oblivious)
// evaluation.
func (nw *Network) Apply(bits []bool, vec []uint64) {
	if len(bits) != len(nw.Swaps) || len(vec) != nw.Size {
		// Apply is the plaintext reference: its bits are a Program this
		// party routed for this network, never a peer's message.
		panic("permnet: Apply size mismatch")
	}
	for i, sw := range nw.Swaps {
		if bits[i] {
			vec[sw[0]], vec[sw[1]] = vec[sw[1]], vec[sw[0]]
		}
	}
}

// walk recursively emits the gates of the Beneš subnetwork over positions
// [off, off+n) routing the local permutation dest (length n), calling emit
// for every gate in evaluation order with its control bit.
func walk(n, off int, dest []int, emit func(p, q int, bit bool)) {
	if n == 1 {
		return
	}
	if n == 2 {
		emit(off, off+1, dest[0] == 1)
		return
	}
	half := n / 2

	inv := make([]int, n)
	for i, d := range dest {
		inv[d] = i
	}

	// 2-color the connections: color[i] is the subnet (0 = top, 1 =
	// bottom) carrying input i. Constraints: inputs i and i^half share an
	// input switch; outputs d and d^half share an output switch.
	color := make([]int8, n)
	for i := range color {
		color[i] = -1
	}
	for start := 0; start < n; start++ {
		if color[start] != -1 {
			continue
		}
		i := start
		c := int8(0)
		for color[i] == -1 {
			color[i] = c
			j := inv[dest[i]^half] // shares an output switch with i
			color[j] = 1 - c
			i = j ^ half // shares an input switch with j
		}
	}

	// Input layer: switch k pairs inputs (k, k+half); bit set routes input
	// k to the bottom subnet.
	topSrc := make([]int, half)
	for k := 0; k < half; k++ {
		bit := color[k] == 1
		emit(off+k, off+k+half, bit)
		if bit {
			topSrc[k] = k + half
		} else {
			topSrc[k] = k
		}
	}

	// Build the sub-permutations: the connection entering the top subnet
	// at position k must exit it at position dest mod half (and similarly
	// for the bottom subnet).
	topDest := make([]int, half)
	botDest := make([]int, half)
	topOutFinal := make([]int, half) // final destination of top output m
	for k := 0; k < half; k++ {
		tSrc := topSrc[k]
		bSrc := tSrc ^ half
		td := dest[tSrc] & (half - 1)
		bd := dest[bSrc] & (half - 1)
		topDest[k] = td
		botDest[k] = bd
		topOutFinal[td] = dest[tSrc]
	}

	walk(half, off, topDest, emit)
	walk(half, off+half, botDest, emit)

	// Output layer: switch m pairs positions (m, m+half); bit set when the
	// top subnet's output m belongs to final output m+half.
	for m := 0; m < half; m++ {
		emit(off+m, off+m+half, topOutFinal[m] >= half)
	}
}
