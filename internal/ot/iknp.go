package ot

import (
	"fmt"

	"secyan/internal/bitutil"
	"secyan/internal/parallel"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// kappa is the number of base OTs / the width of the IKNP matrix.
const kappa = 128

// Sender is the message-sending endpoint of an IKNP OT-extension session.
// After a one-time Setup (κ base OTs in the reverse direction), every
// batch — random, correlated or chosen-message (correlated.go) — uses
// only symmetric cryptography and at most one round trip.
type Sender struct {
	conn    transport.Conn
	s       *bitutil.Vector // the κ secret selection bits
	sRow    [kappa / 8]byte // s packed, XORed into q-rows for pad 1
	streams []*prf.PRG      // PRG(k_i^{s_i}), one per column
	idx     uint64          // global OT counter, for hash tweak freshness
	pool    Pool            // precomputed random-OT batches (random.go)
}

// Receiver is the choosing endpoint of an IKNP OT-extension session.
type Receiver struct {
	conn     transport.Conn
	streams0 []*prf.PRG
	streams1 []*prf.PRG
	idx      uint64
	pool     Pool
}

// NewSender runs the base-OT setup (acting as base-OT *receiver* with κ
// random choice bits) and returns a ready extension sender.
func NewSender(conn transport.Conn) (*Sender, error) {
	g := prf.NewPRG(prf.RandomSeed())
	choices := make([]bool, kappa)
	s := bitutil.NewVector(kappa)
	for i := range choices {
		choices[i] = g.Bool()
		s.Set(i, choices[i])
	}
	seeds, err := BaseRecv(conn, choices)
	if err != nil {
		return nil, fmt.Errorf("ot: sender setup: %w", err)
	}
	snd := &Sender{conn: conn, s: s}
	copy(snd.sRow[:], s.Bytes())
	snd.streams = make([]*prf.PRG, kappa)
	for i, sd := range seeds {
		snd.streams[i] = prf.NewPRG(sd)
	}
	return snd, nil
}

// NewReceiver runs the base-OT setup (acting as base-OT *sender*; the
// random OTs return the κ seed pairs) and returns a ready extension
// receiver.
func NewReceiver(conn transport.Conn) (*Receiver, error) {
	pairs, err := BaseSend(conn, kappa)
	if err != nil {
		return nil, fmt.Errorf("ot: receiver setup: %w", err)
	}
	r := &Receiver{conn: conn}
	r.streams0 = make([]*prf.PRG, kappa)
	r.streams1 = make([]*prf.PRG, kappa)
	for i := range pairs {
		r.streams0[i] = prf.NewPRG(pairs[i][0])
		r.streams1[i] = prf.NewPRG(pairs[i][1])
	}
	return r, nil
}

// padBatch is the number of OT instances whose pads are hashed per
// HashBlocks call in the batched break-correlation path.
const padBatch = 64

// otTweak maps the session-global OT instance counter into the OT
// extension's tweak domain of the fixed-key permutation (see the Site*
// scheme in prf/fixedkey.go). The two pads of one instance — rows q_j
// and q_j ⊕ s — share the tweak by design: that correlated pair is the
// correlation-robustness game the MMO hash is assumed to win.
func otTweak(idx uint64) uint64 { return prf.SiteOT | idx }

// derivePad writes the len(dst)-byte pad of OT instance idx into dst:
// the fixed-key AES MMO hash of the instance's κ-bit row, truncated for
// narrower messages and KDF-expanded (HashToWidthAES) for wider ones.
// Every branch is allocation-free, so callers can pass stack buffers.
func derivePad(dst []byte, idx uint64, row prf.Block) {
	if len(dst) <= 16 {
		h := prf.HashBlock(row, otTweak(idx))
		copy(dst, h[:len(dst)])
		return
	}
	prf.HashToWidthAES(dst, row, otTweak(idx))
}

// hashRowPads derives the pads of OT instances [lo, hi) in bulk:
// instance j's key is row j of rows (XORed with mask when non-nil),
// hashed under tweak idx+j, and its pad lands at
// dst[j·msgLen : (j+1)·msgLen]. Pads of at most one block — the 16-byte
// labels, the ⌈2ℓ/8⌉-byte switch payloads, the ℓ/8-byte products of
// share multiplication — run the batched HashBlocks kernel, one row
// gather and one AES sweep per padBatch instances, truncated to msgLen;
// wider ones fall back to per-instance derivation. Zero heap allocations
// either way.
func hashRowPads(dst []byte, rows *bitutil.Matrix, mask *[kappa / 8]byte, idx uint64, lo, hi, msgLen int) {
	var src, out [padBatch]prf.Block
	for base := lo; base < hi; base += padBatch {
		n := hi - base
		if n > padBatch {
			n = padBatch
		}
		for k := 0; k < n; k++ {
			rows.RowBytesInto(src[k][:], base+k)
			if mask != nil {
				prf.XORBytes(src[k][:], src[k][:], mask[:])
			}
		}
		if msgLen <= 16 {
			prf.HashBlocks(out[:n], src[:n], otTweak(idx+uint64(base)), 1)
			for k := 0; k < n; k++ {
				off := (base + k) * msgLen
				copy(dst[off:off+msgLen], out[k][:])
			}
		} else {
			for k := 0; k < n; k++ {
				off := (base + k) * msgLen
				derivePad(dst[off:off+msgLen], idx+uint64(base+k), src[k])
			}
		}
	}
}

// padTo64 rounds a batch size up to the matrix width IKNP expands: whole
// 64-bit words, the unit both of the transpose and of the idx counter.
func padTo64(m int) uint64 { return uint64(m+63) &^ 63 }

// expandColumns derives the T matrix of one batch from the base-OT
// streams, sends the correction matrix u_i = t_i ⊕ PRG(k_i^1) ⊕ r for
// the choice vector r, and returns Tᵀ whose rows are the per-instance
// keys. The batch is padded to whole words with random choice bits:
// they belong to discarded OT instances.
//
// Each column owns its two PRG streams and a disjoint slice of uMsg, so
// the expansion parallelizes with byte-identical output.
func (r *Receiver) expandColumns(choices []bool) (*bitutil.Matrix, error) {
	m := len(choices)
	mPad := int(padTo64(m))
	rowBytes := mPad / 8
	g := prf.NewPRG(prf.RandomSeed())
	rv := bitutil.NewVector(mPad)
	for i, c := range choices {
		rv.Set(i, c)
	}
	for i := m; i < mPad; i++ {
		rv.Set(i, g.Bool())
	}
	rBytes := rv.Bytes()
	tm := bitutil.NewMatrix(kappa, mPad)
	uMsg := make([]byte, kappa*rowBytes)
	parallel.For(kappa, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := r.streams0[i].Bytes(rowBytes)
			tm.SetRowBytes(i, t)
			p1 := r.streams1[i].Bytes(rowBytes)
			u := uMsg[i*rowBytes : (i+1)*rowBytes]
			prf.XORBytes(u, t, p1)
			prf.XORBytes(u, u, rBytes)
		}
	})
	if err := r.conn.Send(uMsg); err != nil {
		return nil, err
	}
	return tm.Transpose(), nil
}

// expandColumns receives the peer's correction matrix for a batch of m
// OTs, applies the secret s correction per column, and returns Qᵀ whose
// rows are the instance keys. Column i owns stream i and writes only row
// i of the Q matrix.
func (s *Sender) expandColumns(m int) (*bitutil.Matrix, error) {
	mPad := int(padTo64(m))
	rowBytes := mPad / 8
	uMsg, err := transport.RecvSized(s.conn, "ot: extension matrix", kappa*rowBytes)
	if err != nil {
		return nil, err
	}
	qm := bitutil.NewMatrix(kappa, mPad)
	parallel.For(kappa, 8, func(lo, hi int) {
		tmp := make([]byte, rowBytes)
		for i := lo; i < hi; i++ {
			q := s.streams[i].Bytes(rowBytes)
			if s.s.Get(i) {
				prf.XORBytes(tmp, q, uMsg[i*rowBytes:(i+1)*rowBytes])
				qm.SetRowBytes(i, tmp)
			} else {
				qm.SetRowBytes(i, q)
			}
		}
	})
	return qm.Transpose(), nil
}
