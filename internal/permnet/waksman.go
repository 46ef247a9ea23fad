// Package permnet builds and routes arbitrary-size AS-Waksman
// permutation networks (Beauquier–Darrot) and the Mohassel–Sadeghian
// decomposition of *extended* permutations (permutation + duplication +
// permutation). These networks are the combinatorial core of the
// oblivious extended permutation protocol of paper §5.4: each
// conditional-swap or duplication gate becomes one 1-out-of-2 OT in
// package oep, so an OEP over n wires costs Swaps(n) ≈ n·log₂n
// symmetric operations, with no padding to a power of two.
//
// Conventions: a network of size n operates on a vector of n positions
// by applying its gates in order. Routing a permutation dest (meaning
// output position dest[i] receives input i) produces one control bit
// per gate.
package permnet

import (
	"fmt"
	"math/bits"
)

// Network is an AS-Waksman network: a fixed sequence of conditional
// swap gates over vector positions. The gate sequence depends only on
// Size, so both parties of an oblivious protocol construct identical
// networks.
//
// A network of n ≥ 2 wires with h = ⌊n/2⌋ is an input layer of h
// switches pairing positions (k, k+h), a top subnetwork over [0, h), a
// bottom one over [h, n), and an output layer pairing (k, k+h) again.
// An odd n's last wire bypasses both layers into the larger (bottom)
// subnetwork; an even n's last output switch is fixed straight, so it
// is no gate. That gives Swaps(n) = Swaps(⌊n/2⌋) + Swaps(⌈n/2⌉) + n − 1.
type Network struct {
	Size  int        // vector width, any n ≥ 0
	Swaps [][2]int32 // gates in evaluation order
}

// Swaps returns the swap-gate count of an AS-Waksman network over n
// wires: Σᵢ₌₁ⁿ ⌈log₂ i⌉ = n⌈log₂ n⌉ − 2^⌈log₂ n⌉ + 1, zero for n ≤ 1.
// New presizes its gate list from it, and package oep's closed-form
// gate counts build on it.
func Swaps(n int) int {
	if n <= 1 {
		return 0
	}
	k := bits.Len(uint(n - 1)) // ⌈log₂ n⌉
	return n*k - 1<<k + 1
}

// New builds the AS-Waksman network topology for a size-wide vector.
func New(size int) *Network {
	return &Network{Size: size, Swaps: appendGates(make([][2]int32, 0, Swaps(size)), size, 0)}
}

// appendGates appends the gates of the subnetwork over positions
// [off, off+n) in the order route emits them: the input layer, the top
// and bottom subnetworks, the output layer. The positions depend on n
// alone, so no permutation is routed to find them.
func appendGates(swaps [][2]int32, n, off int) [][2]int32 {
	if n < 2 {
		return swaps
	}
	h := n / 2
	for k := 0; k < h; k++ {
		swaps = append(swaps, [2]int32{int32(off + k), int32(off + k + h)})
	}
	swaps = appendGates(swaps, h, off)
	swaps = appendGates(swaps, n-h, off+h)
	for k := 0; k < (n-1)/2; k++ { // an even n's last switch is fixed
		swaps = append(swaps, [2]int32{int32(off + k), int32(off + k + h)})
	}
	return swaps
}

// Route computes the control bits realizing the permutation dest
// (output dest[i] receives input i). len(dest) must equal Size and dest
// must be a bijection.
func (nw *Network) Route(dest []int) ([]bool, error) {
	n := nw.Size
	if len(dest) != n {
		return nil, fmt.Errorf("permnet: Route got %d destinations for size-%d network", len(dest), n)
	}
	r := newRouter(n)
	seen := r.color
	for i, x := range dest {
		if x < 0 || x >= n || seen[x] != 0 {
			return nil, fmt.Errorf("permnet: dest is not a permutation")
		}
		seen[x] = 1
		r.dest[i] = int32(x)
	}
	out := make([]bool, len(nw.Swaps))
	r.route(out, r.dest)
	return out, nil
}

// Apply runs the network over vec in place using the given control bits.
// It is the plaintext reference used by tests and by local (non-oblivious)
// evaluation.
func (nw *Network) Apply(bits []bool, vec []uint64) {
	if len(bits) != len(nw.Swaps) || len(vec) != nw.Size {
		// Apply is the plaintext reference: its bits are a program this
		// party routed for this network, never a peer's message.
		panic("permnet: Apply size mismatch")
	}
	for i, sw := range nw.Swaps {
		if bits[i] {
			vec[sw[0]], vec[sw[1]] = vec[sw[1]], vec[sw[0]]
		}
	}
}

// router is the scratch arena of one routing call: every recursion
// level reuses it, so routing n wires allocates O(n) words once.
type router struct {
	dest, spare, inv []int32 // a level's permutation, its halves' and its inverse
	color            []int8  // subnetwork of each input: 0 top, 1 bottom, -1 unset
}

// newRouter sizes an arena for networks of up to n wires.
func newRouter(n int) *router {
	buf := make([]int32, 3*n)
	return &router{dest: buf[:n], spare: buf[n : 2*n], inv: buf[2*n:], color: make([]int8, n)}
}

// route writes into out (len Swaps(len(dest))) the control bits that
// realize dest on the network of len(dest) wires. It overwrites dest.
func (r *router) route(out []bool, dest []int32) {
	r.walk(out, dest, r.spare[:len(dest)])
}

// partner returns the position sharing a switch with x in a layer of
// n wires, h = n/2, or -1 for an odd n's bypassing last wire.
func partner(x, h int32) int32 {
	switch {
	case x < h:
		return x + h
	case x < 2*h:
		return x - h
	}
	return -1
}

// walk routes the local permutation dest through the subnetwork of
// len(dest) wires whose control bits are out, in appendGates order.
// The halves' permutations go into spare, and each half recurses with
// its part of dest as its own spare.
func (r *router) walk(out []bool, dest, spare []int32) {
	n := len(dest)
	if n < 2 {
		return
	}
	h := int32(n / 2)
	inv, color := r.inv[:n], r.color[:n]
	for i, d := range dest {
		inv[d] = int32(i)
		color[i] = -1
	}

	// 2-color the connections: color[i] is the subnetwork carrying
	// input i. Inputs i and partner(i) share an input switch, the
	// connections into outputs o and partner(o) share an output switch;
	// each pair takes one of each color. Every input has at most one
	// partner of each kind, so the constraints form paths and even
	// cycles. chain colors one of them, starting at input i with c.
	chain := func(i int32, c int8) {
		for i >= 0 && color[i] < 0 {
			color[i] = c
			o := partner(dest[i], h)
			if o < 0 {
				return // the bypassing last output ends an odd n's path
			}
			j := inv[o]
			color[j] = 1 - c
			i = partner(j, h)
		}
	}
	if n%2 == 1 {
		// The bypassing last input enters the bottom subnetwork; the
		// path from it ends at the bypassing last output, also bottom.
		chain(int32(n-1), 1)
	} else {
		// The fixed last output switch takes output h−1 from the top.
		chain(inv[h-1], 0)
	}
	for i := range dest {
		chain(int32(i), 0)
	}

	// Input layer: switch k pairs inputs (k, k+h); bit set routes input
	// k to the bottom subnetwork. A wire's position within a half is
	// the same for an input and an output: x, or x − h from the second
	// half on (the bypassing wire lands on the bottom's last, h).
	for k := int32(0); k < h; k++ {
		out[k] = color[k] == 1
	}
	for i, d := range dest {
		in, o := int32(i), d
		if in >= h {
			in -= h
		}
		if o >= h {
			o -= h
		}
		if color[i] == 1 {
			in += h
		}
		spare[in] = o
	}

	// Output layer: switch k pairs outputs (k, k+h); bit set when
	// output k is fed by the bottom subnetwork.
	top, bot := Swaps(int(h)), Swaps(n-int(h))
	outs := out[int(h)+top+bot:]
	for k := range outs {
		outs[k] = color[inv[k]] == 1
	}

	r.walk(out[h:int(h)+top], spare[:h], dest[:h])
	r.walk(out[int(h)+top:int(h)+top+bot], spare[h:], dest[h:])
}
