// Package oep implements the oblivious extended permutation protocol of
// paper §5.4 (Mohassel–Sadeghian style): one party (the *programmer*)
// holds a private extended permutation ξ:[N]→[M]; both parties hold
// additive shares of a length-M vector; the protocol produces fresh
// additive shares of the length-N vector y with y_i = x_{ξ(i)}, revealing
// neither ξ nor any value.
//
// Construction: the extended permutation is decomposed by package permnet
// into conditional-swap and duplication gates. Both parties simulate the
// network over their own shares; one correlated OT per gate (internal/ot)
// re-shares its outputs. The OT defines the first message x0 = (a, b) of
// each gate, and the helper's fresh output shares are defined by it —
// s_p − a and s_q − b for a swap, s_q − a for a duplication — so it only
// sends how the programmer's other option differs: m1 − m0 =
// (s_q − s_p, s_p − s_q) for a swap, s_p − s_q for a duplication. A
// programmer that chose 0 adds x0 to its own shares, one that chose 1
// swaps (or duplicates) and adds x1. Because every gate's correlation is
// computable once the pads exist, all OTs run in a single batch: the
// whole protocol is one OT round trip regardless of vector length,
// preserving the constant-round property the paper's operators need.
//
// Shares are carried at ring width: a gate message is the two ℓ-bit
// halves, ⌈2ℓ/8⌉ bytes (MsgLen), and every output is reduced modulo 2^ℓ.
// Every output position is re-randomized — the helper's by the pads, the
// programmer's by the chosen option — so the output shares reveal nothing
// about the inputs (§5.4's "fresh randomness" remark).
package oep

import (
	"encoding/binary"
	"fmt"

	"secyan/internal/mpc"
	"secyan/internal/permnet"
	"secyan/internal/share"
)

// MsgLen is the OT message length at ring width ell: the two ell-bit
// halves of a gate's option, packed little-endian (duplication gates use
// the first and leave the second unchanged).
func MsgLen(ell int) int { return (2*ell + 7) / 8 }

// unpack reads the two ell-bit halves of a gate message.
func unpack(msg []byte, ring share.Ring) (a, b uint64) {
	var w [16]byte
	copy(w[:], msg)
	lo, hi := binary.LittleEndian.Uint64(w[:8]), binary.LittleEndian.Uint64(w[8:])
	if ring.Bits == 64 {
		return lo, hi
	}
	return ring.Mask(lo), ring.Mask(lo>>ring.Bits | hi<<(64-ring.Bits))
}

// pack writes the two ell-bit halves a and b of a gate message into msg,
// every byte of it.
func pack(msg []byte, ring share.Ring, a, b uint64) {
	var w [16]byte
	a, b = ring.Mask(a), ring.Mask(b)
	if ring.Bits == 64 {
		binary.LittleEndian.PutUint64(w[:8], a)
		binary.LittleEndian.PutUint64(w[8:], b)
	} else {
		binary.LittleEndian.PutUint64(w[:8], a|b<<ring.Bits)
		binary.LittleEndian.PutUint64(w[8:], b>>(64-ring.Bits))
	}
	copy(msg, w[:len(msg)])
}

// plan is the public gate sequence of an extended (or plain)
// permutation network over a working vector of width positions: pre's
// swaps, then dups duplication gates — gate j copies position j into
// j + 1 when chosen — then post's swaps. Both parties derive the
// identical plan from public sizes, and the networks' swap lists are
// its only gate list: the programmer routes them, the helper only walks
// them.
type plan struct {
	width     int
	pre, post *permnet.Network // post is nil for a bijection
	dups      int
}

// buildPlan constructs the public gate sequence for an OEP from m inputs
// to n outputs. If bijection is true (m == n and ξ is promised to be a
// permutation), the duplication stage and second network are omitted —
// the optimization used when permuting shares by a random permutation
// (paper §5.5) or by a sort order (§6.1).
func buildPlan(m, n int, bijection bool) (*plan, error) {
	if bijection {
		if m != n {
			return nil, fmt.Errorf("oep: bijection requires m == n, got %d and %d", m, n)
		}
		return &plan{width: m, pre: permnet.New(m)}, nil
	}
	ext := permnet.NewExtended(m, n)
	return &plan{width: max(m, n), pre: ext.Pre, post: ext.Post, dups: max(n-1, 0)}, nil
}

// gates returns the plan's gate count, Gates(m, n, bijection).
func (pl *plan) gates() int {
	n := len(pl.pre.Swaps) + pl.dups
	if pl.post != nil {
		n += len(pl.post.Swaps)
	}
	return n
}

// gate returns gate gi's positions: a swap of p and q, or, when dup is
// set, the duplication that writes p into q = p + 1 when chosen.
func (pl *plan) gate(gi int) (p, q int32, dup bool) {
	if gi < len(pl.pre.Swaps) {
		sw := pl.pre.Swaps[gi]
		return sw[0], sw[1], false
	}
	if gi -= len(pl.pre.Swaps); gi < pl.dups {
		return int32(gi), int32(gi + 1), true
	}
	sw := pl.post.Swaps[gi-pl.dups]
	return sw[0], sw[1], false
}

// route computes the programmer's control bits for ξ = xi, in gate
// order; only the programmer builds router state.
func (pl *plan) route(xi []int, m int) ([]bool, error) {
	if pl.post != nil {
		ext := &permnet.Extended{M: m, N: len(xi), Pre: pl.pre, Post: pl.post}
		return ext.Route(xi)
	}
	// xi maps output i ← input s; the network routes input s to
	// position i, i.e. dest[s] = i.
	dest := make([]int, m)
	for i := range dest {
		dest[i] = -1 // a source xi never names fails Route
	}
	for i, s := range xi {
		if s < 0 || s >= m {
			return nil, fmt.Errorf("oep: xi[%d] = %d out of range", i, s)
		}
		dest[s] = i
	}
	return pl.pre.Route(dest)
}

// RunProgrammer executes the OEP as the party holding ξ. xi[i] ∈ [0,m) is
// the source of output i; myShares is this party's share vector of the
// m inputs. Returns this party's fresh shares of the n outputs.
func RunProgrammer(p *mpc.Party, xi []int, m int, myShares []uint64) ([]uint64, error) {
	return runProgrammer(p, xi, m, len(xi), myShares, false)
}

// RunHelper is the counterpart of RunProgrammer for the party without ξ.
// m and n are the public input/output lengths.
func RunHelper(p *mpc.Party, m, n int, myShares []uint64) ([]uint64, error) {
	return runHelper(p, m, n, myShares, false)
}

// RunPermuteProgrammer executes the cheaper bijection-only variant: xi
// must be a permutation of [0,len(xi)).
func RunPermuteProgrammer(p *mpc.Party, xi []int, myShares []uint64) ([]uint64, error) {
	return runProgrammer(p, xi, len(xi), len(xi), myShares, true)
}

// RunPermuteHelper is the helper side of RunPermuteProgrammer; n is the
// public vector length.
func RunPermuteHelper(p *mpc.Party, n int, myShares []uint64) ([]uint64, error) {
	return runHelper(p, n, n, myShares, true)
}

func runProgrammer(p *mpc.Party, xi []int, m, n int, myShares []uint64, bijection bool) ([]uint64, error) {
	if len(myShares) != m {
		return nil, fmt.Errorf("oep: programmer has %d shares, want %d", len(myShares), m)
	}
	pl, err := buildPlan(m, n, bijection)
	if err != nil {
		return nil, err
	}
	bits, err := pl.route(xi, m)
	if err != nil {
		return nil, err
	}
	if len(bits) != pl.gates() {
		return nil, fmt.Errorf("oep: %d control bits for %d gates", len(bits), pl.gates())
	}

	recv, err := p.OTReceiver()
	if err != nil {
		return nil, err
	}
	ring := p.Ring
	msgLen := MsgLen(ring.Bits)
	msgs, err := recv.ReceiveCorrelated(bits, msgLen)
	if err != nil {
		return nil, err
	}

	// Simulate the network over this party's shares, adding the chosen
	// option of every gate.
	state := make([]uint64, pl.width)
	for i, v := range myShares {
		state[i] = ring.Mask(v)
	}
	for gi, c := range bits {
		a, b := unpack(msgs[gi*msgLen:(gi+1)*msgLen], ring)
		p, q, dup := pl.gate(gi)
		sp, sq := state[p], state[q]
		if c {
			sp, sq = sq, sp
		}
		if dup {
			state[q] = ring.Add(sq, a) // q's own share, or p's when chosen
			continue
		}
		state[p] = ring.Add(sp, a)
		state[q] = ring.Add(sq, b)
	}
	return state[:n], nil
}

func runHelper(p *mpc.Party, m, n int, myShares []uint64, bijection bool) ([]uint64, error) {
	if len(myShares) != m {
		return nil, fmt.Errorf("oep: helper has %d shares, want %d", len(myShares), m)
	}
	pl, err := buildPlan(m, n, bijection)
	if err != nil {
		return nil, err
	}
	snd, err := p.OTSender()
	if err != nil {
		return nil, err
	}

	// Simulate the network over this party's shares gate by gate as the
	// corrections are built: each gate's fresh output shares are its
	// shares minus the OT's x0, and its correlation is the difference of
	// the programmer's two options.
	ring := p.Ring
	state := make([]uint64, pl.width)
	for i, v := range myShares {
		state[i] = ring.Mask(v)
	}
	_, err = snd.SendCorrelated(pl.gates(), MsgLen(ring.Bits), func(gi int, x0, x1 []byte) {
		p, q, dup := pl.gate(gi)
		a, b := unpack(x0, ring)
		sp, sq := state[p], state[q]
		if dup {
			pack(x1, ring, a+sp-sq, b)
			state[q] = ring.Sub(sq, a)
			return
		}
		pack(x1, ring, a+sq-sp, b+sp-sq)
		state[p], state[q] = ring.Sub(sp, a), ring.Sub(sq, b)
	})
	if err != nil {
		return nil, err
	}
	return state[:n], nil
}
