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

// gateKind distinguishes the two oblivious gate types.
type gateKind uint8

const (
	gateSwap gateKind = iota
	gateDup
)

// gate is one oblivious gate over working-vector positions.
type gate struct {
	kind gateKind
	p, q int // swap: positions; dup: q = target, p = source (q-1)
}

// plan lists the gates of an extended (or plain) permutation network in
// evaluation order. Both parties derive the identical plan from public
// sizes.
type plan struct {
	width int
	gates []gate
}

// buildPlan constructs the public gate sequence for an OEP from m inputs
// to n outputs. If bijection is true (m == n and ξ is promised to be a
// permutation), the duplication stage and second network are omitted —
// the optimization used when permuting shares by a random permutation
// (paper §5.5) or by a sort order (§6.1).
func buildPlan(m, n int, bijection bool) (*plan, *permnet.Extended, error) {
	if bijection {
		if m != n {
			return nil, nil, fmt.Errorf("oep: bijection requires m == n, got %d and %d", m, n)
		}
		w := permnet.CeilPow2(maxInt(m, 2))
		net := permnet.New(w)
		pl := &plan{width: w}
		for _, sw := range net.Swaps {
			pl.gates = append(pl.gates, gate{gateSwap, int(sw[0]), int(sw[1])})
		}
		return pl, &permnet.Extended{M: m, N: n, W: w, Pre: net}, nil
	}
	ext := permnet.NewExtended(m, n)
	pl := &plan{width: ext.W}
	for _, sw := range ext.Pre.Swaps {
		pl.gates = append(pl.gates, gate{gateSwap, int(sw[0]), int(sw[1])})
	}
	for j := 1; j < ext.W; j++ {
		pl.gates = append(pl.gates, gate{gateDup, j - 1, j})
	}
	for _, sw := range ext.Post.Swaps {
		pl.gates = append(pl.gates, gate{gateSwap, int(sw[0]), int(sw[1])})
	}
	return pl, ext, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// programBits flattens the control bits of an extended-permutation
// program in plan order.
func programBits(pl *plan, prog *permnet.Program, bijection bool) []bool {
	if bijection {
		return prog.PreBits
	}
	bits := make([]bool, 0, len(pl.gates))
	bits = append(bits, prog.PreBits...)
	bits = append(bits, prog.DupBits...)
	bits = append(bits, prog.PostBits...)
	return bits
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
	pl, ext, err := buildPlan(m, n, bijection)
	if err != nil {
		return nil, err
	}
	var bits []bool
	if bijection {
		// Embed xi into the padded width with identity on the padding.
		dest := make([]int, pl.width)
		for i := range dest {
			dest[i] = i
		}
		for i, s := range xi {
			// xi maps output i ← input s; the network routes input s to
			// position i, i.e. dest[s] = i.
			if s < 0 || s >= m {
				return nil, fmt.Errorf("oep: xi[%d] = %d out of range", i, s)
			}
			dest[s] = i
		}
		bs, err := ext.Pre.Route(dest)
		if err != nil {
			return nil, err
		}
		bits = bs
	} else {
		prog, err := ext.Route(xi)
		if err != nil {
			return nil, err
		}
		bits = programBits(pl, prog, false)
	}
	if len(bits) != len(pl.gates) {
		return nil, fmt.Errorf("oep: %d control bits for %d gates", len(bits), len(pl.gates))
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
	for gi, g := range pl.gates {
		a, b := unpack(msgs[gi*msgLen:(gi+1)*msgLen], ring)
		switch g.kind {
		case gateSwap:
			sp, sq := state[g.p], state[g.q]
			if bits[gi] {
				sp, sq = sq, sp
			}
			state[g.p] = ring.Add(sp, a)
			state[g.q] = ring.Add(sq, b)
		case gateDup:
			src := state[g.q]
			if bits[gi] {
				src = state[g.p]
			}
			state[g.q] = ring.Add(src, a)
		}
	}
	return state[:n], nil
}

func runHelper(p *mpc.Party, m, n int, myShares []uint64, bijection bool) ([]uint64, error) {
	if len(myShares) != m {
		return nil, fmt.Errorf("oep: helper has %d shares, want %d", len(myShares), m)
	}
	pl, _, err := buildPlan(m, n, bijection)
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
	_, err = snd.SendCorrelated(len(pl.gates), MsgLen(ring.Bits), func(gi int, x0, x1 []byte) {
		g := pl.gates[gi]
		a, b := unpack(x0, ring)
		sp, sq := state[g.p], state[g.q]
		switch g.kind {
		case gateSwap:
			pack(x1, ring, a+sq-sp, b+sp-sq)
			state[g.p], state[g.q] = ring.Sub(sp, a), ring.Sub(sq, b)
		case gateDup:
			pack(x1, ring, a+sp-sq, b)
			state[g.q] = ring.Sub(sq, a)
		}
	})
	if err != nil {
		return nil, err
	}
	return state[:n], nil
}
