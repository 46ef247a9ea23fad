// Package ot implements 1-out-of-2 oblivious transfer: the Chou–Orlandi
// "simplest OT" over the NIST P-256 curve as the base OT, and the
// SoftSpoken OT extension (Roy 2022, at k = 4, softspoken.go) that turns
// κ=128 base OTs into an effectively unlimited stream of fast OTs built
// from symmetric primitives only — IKNP'03's correlation from a quarter of
// IKNP's correction matrix. Oblivious transfer is the root primitive of
// this repository: garbled-circuit input labels, oblivious switching
// networks (OEP), and hence PSI and every secure Yannakakis operator are
// built on top of it.
//
// The base OT is a *random* OT: the protocol itself produces the sender's
// two seeds per instance and the receiver's chosen one — which is all
// the extension needs — in two messages (one curve point from the
// sender, one point per instance back) and no ciphertexts; see DESIGN.md
// §3. The extension's receiver then sends one message of GGM
// corrections that punctures the sender's trees. A party pair runs the
// base OTs once: the opposite direction's κ base OTs are κ random OTs of
// the first direction's extension (Receiver.Reverse, Sender.Reverse).
//
// Next to it sits the KKRT 1-of-∞ extension (kkrt.go), the PSI's
// batched OPRF, whose 512 base OTs are derived the same way from an
// extension direction (NewKKRTSender, NewKKRTReceiver), and whose batch
// runs the same chunk kernel at k = 1.
//
// All protocols here are semi-honest, matching the paper's security model
// (§4). Malformed peer messages are still rejected with a *MessageError
// or a *transport.SizeError rather than a panic: semi-honest is the
// privacy model, not the availability model.
package ot

import (
	"bytes"
	"crypto/elliptic"
	"crypto/rand"
	"fmt"

	"secyan/internal/obs"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// The OT kernels, measured in OT instances per call: base OTs (public-key
// operations, the setup) and the online extension batches (symmetric
// only, the bulk workload) — direct and derandomized from a pool — and
// the KKRT batches of the PSI's OPRF (kkrt.go).
var (
	kBaseSend   = obs.NewKernel("ot.base.send")
	kBaseRecv   = obs.NewKernel("ot.base.recv")
	kExtSend    = obs.NewKernel("ot.ext.send")
	kExtRecv    = obs.NewKernel("ot.ext.recv")
	kDerandSend = obs.NewKernel("ot.ext.derand.send")
	kDerandRecv = obs.NewKernel("ot.ext.derand.recv")
	kKKRTSend   = obs.NewKernel("ot.kkrt.send")
	kKKRTRecv   = obs.NewKernel("ot.kkrt.recv")
)

// curve is the group of the base OTs: NIST P-256, prime order, ≈128-bit
// security — the level of κ and of every symmetric primitive downstream.
var curve = elliptic.P256()

// pointLen is the byte length of a SEC 1 compressed P-256 point, the
// only encoding the base OTs put on the wire.
const pointLen = 33

// MessageError reports a base-OT message from the peer that cannot be
// used: wrong length, not a curve point, or a point chosen so that a
// key would be the point at infinity.
type MessageError struct {
	Index  int // OT instance the point belongs to; -1 for the batch as a whole or the sender's setup point
	Reason string
}

func (e *MessageError) Error() string {
	if e.Index < 0 {
		return "ot: base OT: " + e.Reason
	}
	return fmt.Sprintf("ot: base OT %d: %s", e.Index, e.Reason)
}

// keySeed hashes the compressed encoding of instance i's shared point
// into a seed. SHA-256 as a random oracle over the group element is what
// the protocol's CDH argument needs (DESIGN.md §13, §3).
func keySeed(i int, point []byte) (s prf.Seed) {
	h := prf.Hash(uint64(i), point)
	copy(s[:], h[:])
	return s
}

// BaseSend runs n random OTs as the sender and returns the seed pair of
// each instance; the receiver learns exactly one seed of every pair.
//
// The sender publishes S = y·G, receives R_i = c_i·S + x_i·G and derives
// seed0 = H(i, y·R_i), seed1 = H(i, y·R_i − y·S): whichever of the two
// equals the receiver's H(i, x_i·S), the other is y·(x_i ∓ y)·G, a CDH
// instance in (S, R_i) for the receiver.
func BaseSend(conn transport.Conn, n int) ([][2]prf.Seed, error) {
	sp := kBaseSend.Begin()
	defer sp.EndN(int64(n))
	y, sx, sy, err := elliptic.GenerateKey(curve, rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("ot: base OT entropy: %w", err)
	}
	sEnc := elliptic.MarshalCompressed(curve, sx, sy)
	if err := conn.Send(sEnc); err != nil {
		return nil, err
	}
	// −T for T = y·S, computed once. The compressed encoding's prefix is
	// the parity of the y-coordinate and p is odd, so flipping it negates.
	tx, ty := curve.ScalarMult(sx, sy, y)
	negT := elliptic.MarshalCompressed(curve, tx, ty)
	negT[0] ^= 1
	ntx, nty := elliptic.UnmarshalCompressed(curve, negT)

	msg, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(msg) != n*pointLen {
		return nil, &MessageError{-1, fmt.Sprintf("receiver points: got %d bytes, want %d", len(msg), n*pointLen)}
	}
	pairs := make([][2]prf.Seed, n)
	for i := range pairs {
		enc := msg[i*pointLen : (i+1)*pointLen]
		rx, ry := elliptic.UnmarshalCompressed(curve, enc)
		if rx == nil {
			return nil, &MessageError{i, "receiver point is not a compressed P-256 point"}
		}
		if bytes.Equal(enc, sEnc) {
			return nil, &MessageError{i, "receiver point equals the setup point (key at infinity)"}
		}
		kx, ky := curve.ScalarMult(rx, ry, y)
		pairs[i][0] = keySeed(i, elliptic.MarshalCompressed(curve, kx, ky))
		kx, ky = curve.Add(kx, ky, ntx, nty)
		pairs[i][1] = keySeed(i, elliptic.MarshalCompressed(curve, kx, ky))
	}
	return pairs, nil
}

// BaseRecv runs len(choices) random OTs as the receiver and returns the
// chosen seed of each instance: seed choices[i] of the sender's pair i.
func BaseRecv(conn transport.Conn, choices []bool) ([]prf.Seed, error) {
	n := len(choices)
	sp := kBaseRecv.Begin()
	defer sp.EndN(int64(n))
	sEnc, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(sEnc) != pointLen {
		return nil, &MessageError{-1, fmt.Sprintf("setup point: got %d bytes, want %d", len(sEnc), pointLen)}
	}
	sx, sy := elliptic.UnmarshalCompressed(curve, sEnc)
	if sx == nil {
		return nil, &MessageError{-1, "setup point is not a compressed P-256 point"}
	}
	xs := make([][]byte, n)
	msg := make([]byte, 0, n*pointLen)
	for i, c := range choices {
		x, rx, ry, err := elliptic.GenerateKey(curve, rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("ot: base OT entropy: %w", err)
		}
		// Add unconditionally so the work does not depend on the choice.
		ax, ay := curve.Add(rx, ry, sx, sy)
		if c {
			rx, ry = ax, ay
		}
		msg = append(msg, elliptic.MarshalCompressed(curve, rx, ry)...)
		xs[i] = x
	}
	if err := conn.Send(msg); err != nil {
		return nil, err
	}
	// The keys come after the points are on their way: this half of the
	// receiver's work overlaps the sender's.
	seeds := make([]prf.Seed, n)
	for i, x := range xs {
		kx, ky := curve.ScalarMult(sx, sy, x)
		seeds[i] = keySeed(i, elliptic.MarshalCompressed(curve, kx, ky))
	}
	return seeds, nil
}
