package psi

import (
	"encoding/binary"

	"secyan/internal/cuckoo"
	"secyan/internal/mpc"
	"secyan/internal/ot"
	"secyan/internal/prf"
)

// This file is the per-bin oblivious PRF under the hint (hint.go): one
// KKRT batch (ot/kkrt.go) over the bins, the construction of paper §5.3.
// The receiver's input in bin b is her composed key x, encoded as the
// pseudorandom code word
//
//	C(x) = HashToWidthAES(KeyBlock(seed, x), SitePSI|5)
//
// of ot.KKRTWidth bits under the PSI's cuckoo seed, and
//
//	F_b(y) = SHA-256(b, q_b ⊕ (C(y) ∧ s))
//
// over the whole 512-bit row, which the sender evaluates at every key of
// his bin and the receiver learns at hers. For y ≠ x the hash input
// carries the ≈ 256 bits of s where C(x) and C(y) differ (at least κ:
// TestKKRTCodeMinDistance), so F_b(y) is pseudorandom to her (DESIGN.md
// §5, §13). The batch is one KKRTCodeBytes row per bin, ot.KKRTCost,
// online: nothing of it is pooled, and its base OTs are the per-query
// KKRT setup (mpc.Party.KKRTSender).

// codeTweak is the KKRT code's tweak in the PSI tweak domain.
const codeTweak = prf.SitePSI | 5

// oprfLen is the byte width of an OPRF output: two words, cut to the
// hint's value widths.
const oprfLen = 16

// codeWord writes C(x) under the cuckoo seed into dst.
func codeWord(dst *[ot.KKRTCodeBytes]byte, seed prf.Seed, x uint64) {
	prf.HashToWidthAES(dst[:], cuckoo.KeyBlock(seed, x), codeTweak)
}

// oprfValue cuts an OPRF output to the hint's value widths.
func (h hintDims) oprfValue(d []byte) value {
	return h.mask(value{binary.LittleEndian.Uint64(d[:8]), binary.LittleEndian.Uint64(d[8:16])})
}

// oprfReceive runs the OPRF as the receiver on one composed key per bin
// and returns F_b(keys[b]) for every bin.
func oprfReceive(p *mpc.Party, h hintDims, seed prf.Seed, keys []uint64) ([]value, error) {
	rcv, err := p.KKRTReceiver()
	if err != nil {
		return nil, err
	}
	codes := make([]byte, len(keys)*ot.KKRTCodeBytes)
	for b, k := range keys {
		codeWord((*[ot.KKRTCodeBytes]byte)(codes[b*ot.KKRTCodeBytes:]), seed, k)
	}
	fs, err := rcv.Receive(codes, oprfLen)
	if err != nil {
		return nil, err
	}
	out := make([]value, len(keys))
	for b := range out {
		out[b] = h.oprfValue(fs[b*oprfLen:])
	}
	return out, nil
}

// oprfSender is the sender's side of one OPRF batch: the KKRT keys of
// every bin and what evaluating them needs.
type oprfSender struct {
	h    hintDims
	seed prf.Seed
	keys *ot.KKRTKeys
}

// oprfSend runs the OPRF as the sender for the given number of bins.
func oprfSend(p *mpc.Party, h hintDims, seed prf.Seed, bins int) (*oprfSender, error) {
	snd, err := p.KKRTSender()
	if err != nil {
		return nil, err
	}
	keys, err := snd.Send(bins)
	if err != nil {
		return nil, err
	}
	return &oprfSender{h, seed, keys}, nil
}

// eval returns F_bin(key).
func (o *oprfSender) eval(bin int, key uint64) value {
	var c [ot.KKRTCodeBytes]byte
	var d [oprfLen]byte
	codeWord(&c, o.seed, key)
	o.keys.Eval(d[:], bin, &c)
	return o.h.oprfValue(d[:])
}
