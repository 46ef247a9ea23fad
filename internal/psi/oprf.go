package psi

import (
	"encoding/binary"

	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/prf"
)

// This file is the per-bin oblivious PRF under the hint (hint.go): the
// OT-based construction in which bin b's key is keyBits pairs of random
// pads, the receiver obtains by random OT the pad each bit of her
// composed key selects, and
//
//	F_b(x) = H(⊕ᵢ pad_{b,i}^{xᵢ})
//
// with H the fixed-key hash under oprfTweak. The sender holds both pads
// of every pair and evaluates F_b anywhere; the receiver holds one pad
// per pair, so for any y ≠ x the XOR includes a pad she never saw
// (DESIGN.md §14). The pads are the IKNP outputs themselves
// (ot.SendRandom): keyBits OTs per bin, no ciphertexts, servable from a
// precomputed pool at one bit each.

// oprfTweak is the OPRF output hash's tweak in the PSI tweak domain.
const oprfTweak = prf.SitePSI | 3

// padLen is the random-OT pad width: one block.
const padLen = 16

// oprfValue hashes a bin's XORed pads into the OPRF output, cut to the
// hint's value widths.
func (h hintDims) oprfValue(k prf.Block) value {
	d := prf.HashBlock(k, oprfTweak)
	return h.mask(value{binary.LittleEndian.Uint64(d[:8]), binary.LittleEndian.Uint64(d[8:])})
}

// oprfReceive runs the OPRF as the receiver on one composed key per bin
// and returns F_b(keys[b]) for every bin.
func oprfReceive(p *mpc.Party, h hintDims, keys []uint64) ([]value, error) {
	rcv, err := p.OTReceiver()
	if err != nil {
		return nil, err
	}
	choices := make([]bool, 0, len(keys)*keyBits)
	for _, k := range keys {
		choices = gc.AppendBits(choices, k, keyBits)
	}
	pads, err := rcv.ReceiveRandom(choices, padLen)
	if err != nil {
		return nil, err
	}
	out := make([]value, len(keys))
	blocks := prf.BlocksOf(pads)
	for b := range out {
		var k prf.Block
		for _, pad := range blocks[b*keyBits : (b+1)*keyBits] {
			prf.XORBlock(&k, k, pad)
		}
		out[b] = h.oprfValue(k)
	}
	return out, nil
}

// oprfKeys are the sender's OPRF keys: both pads of every (bin, key bit).
type oprfKeys struct {
	h      hintDims
	r0, r1 []prf.Block
}

// oprfSend runs the OPRF as the sender for the given number of bins.
func oprfSend(p *mpc.Party, h hintDims, bins int) (*oprfKeys, error) {
	snd, err := p.OTSender()
	if err != nil {
		return nil, err
	}
	r0, r1, err := snd.SendRandom(bins*keyBits, padLen)
	if err != nil {
		return nil, err
	}
	return &oprfKeys{h, prf.BlocksOf(r0), prf.BlocksOf(r1)}, nil
}

// eval returns F_bin(key).
func (o *oprfKeys) eval(bin int, key uint64) value {
	var k prf.Block
	for i := 0; i < keyBits; i++ {
		pad := o.r0[bin*keyBits+i]
		if key>>uint(i)&1 == 1 {
			pad = o.r1[bin*keyBits+i]
		}
		prf.XORBlock(&k, k, pad)
	}
	return o.h.oprfValue(k)
}
