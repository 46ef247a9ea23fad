// Package share implements the additive ("arithmetic") secret sharing over
// Z_n, n = 2^ℓ, of paper §5.1. A value v is split into two uniformly
// random shares that sum to v modulo n; either share alone is uniform and
// carries no information. Annotations of every intermediate relation in
// the secure Yannakakis protocol flow in this form.
//
// Shares are carried in uint64 values. Because 2^ℓ divides 2^64, additive
// shares taken modulo 2^64 remain valid additive shares modulo 2^ℓ after
// masking, so protocols may work in uint64 arithmetic throughout and mask
// only when interpreting values.
package share

import "secyan/internal/prf"

// Ring is the annotation ring Z_{2^Bits}. The paper's experiments use
// ℓ = 32; anything from 1 to 64 is supported.
type Ring struct {
	Bits int
}

// Default is the ring used by the paper's experiments (§8.2).
var Default = Ring{Bits: 32}

// OrDefault returns r, or Default when r is the zero Ring. Every
// zero-value ring defaulting in the repository goes through here.
func (r Ring) OrDefault() Ring {
	if r.Bits == 0 {
		return Default
	}
	return r
}

// Mask reduces v modulo 2^Bits.
func (r Ring) Mask(v uint64) uint64 {
	if r.Bits >= 64 {
		return v
	}
	return v & (1<<uint(r.Bits) - 1)
}

// Add returns (a + b) mod 2^Bits.
func (r Ring) Add(a, b uint64) uint64 { return r.Mask(a + b) }

// Sub returns (a - b) mod 2^Bits.
func (r Ring) Sub(a, b uint64) uint64 { return r.Mask(a - b) }

// Mul returns (a * b) mod 2^Bits.
func (r Ring) Mul(a, b uint64) uint64 { return r.Mask(a * b) }

// Neg returns (-a) mod 2^Bits.
func (r Ring) Neg(a uint64) uint64 { return r.Mask(-a) }

// Split shares v: the first share is drawn uniformly from the ring, the
// second is v minus it.
func (r Ring) Split(g *prf.PRG, v uint64) (s1, s2 uint64) {
	s1 = r.Mask(g.Uint64())
	s2 = r.Sub(v, s1)
	return
}

// Random returns a uniform ring element.
func (r Ring) Random(g *prf.PRG) uint64 { return r.Mask(g.Uint64()) }

// SplitSlice shares every element of vs.
func (r Ring) SplitSlice(g *prf.PRG, vs []uint64) (s1, s2 []uint64) {
	s1 = make([]uint64, len(vs))
	s2 = make([]uint64, len(vs))
	for i, v := range vs {
		s1[i], s2[i] = r.Split(g, v)
	}
	return
}

// CombineSlice reconstructs a slice of values from aligned share slices.
func (r Ring) CombineSlice(s1, s2 []uint64) []uint64 {
	if len(s1) != len(s2) {
		// The one caller holding a peer's shares, mpc.RecvReveal, sizes
		// them to its own with transport.RecvUint64s first.
		panic("share: CombineSlice length mismatch")
	}
	out := make([]uint64, len(s1))
	for i := range out {
		out[i] = r.Add(s1[i], s2[i])
	}
	return out
}

// AddSlices returns the elementwise ring sum a + b; used for the
// communication-free local addition of shared values (§5.1).
func (r Ring) AddSlices(a, b []uint64) []uint64 {
	if len(a) != len(b) {
		// Both operands are this party's own share vectors, never a
		// message sized by the peer.
		panic("share: AddSlices length mismatch")
	}
	out := make([]uint64, len(a))
	for i := range out {
		out[i] = r.Add(a[i], b[i])
	}
	return out
}
