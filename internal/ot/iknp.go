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
// After a one-time setup (κ base OTs in the reverse direction), every
// batch — random, correlated or chosen-message (correlated.go) — uses
// only symmetric cryptography and at most one round trip.
type Sender struct {
	conn transport.Conn
	s    *bitutil.Vector // the κ secret selection bits
	sRow [kappa / 8]byte // s packed, XORed into q-rows for pad 1
	cols [kappa]prf.CTR  // AES-CTR under k_i^{s_i}, one per column
	off  uint64          // byte offset of the next batch in every column's stream
	idx  uint64          // global OT counter, for hash tweak freshness
	pool Pool            // precomputed random-OT batches (random.go)
}

// Receiver is the choosing endpoint of an IKNP OT-extension session.
type Receiver struct {
	conn  transport.Conn
	cols0 [kappa]prf.CTR // AES-CTR under k_i^0, one per column
	cols1 [kappa]prf.CTR // AES-CTR under k_i^1
	off   uint64         // byte offset of the next batch in every column's stream
	idx   uint64         // global OT counter, equal to the sender's
	pool  Pool
}

// newSender builds an extension sender from its κ base OTs: the secret
// choice bits s and the seed k_i^{s_i} each one selected.
func newSender(conn transport.Conn, s []bool, seeds []prf.Seed) *Sender {
	snd := &Sender{conn: conn, s: bitutil.NewVector(kappa)}
	for i, c := range s {
		snd.s.Set(i, c)
		snd.cols[i] = prf.NewCTR(seeds[i])
	}
	copy(snd.sRow[:], snd.s.Bytes())
	return snd
}

// newReceiver builds an extension receiver from the κ seed pairs of its
// base OTs.
func newReceiver(conn transport.Conn, pairs [][2]prf.Seed) *Receiver {
	r := &Receiver{conn: conn}
	for i, p := range pairs {
		r.cols0[i] = prf.NewCTR(p[0])
		r.cols1[i] = prf.NewCTR(p[1])
	}
	return r
}

// randomBits draws n uniform bits from a fresh seed.
func randomBits(n int) []bool {
	g := prf.NewPRG(prf.RandomSeed())
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = g.Bool()
	}
	return bits
}

// NewSender runs the base-OT setup (acting as base-OT *receiver* with κ
// random choice bits) and returns a ready extension sender.
func NewSender(conn transport.Conn) (*Sender, error) {
	s := randomBits(kappa)
	seeds, err := BaseRecv(conn, s)
	if err != nil {
		return nil, fmt.Errorf("ot: sender setup: %w", err)
	}
	return newSender(conn, s, seeds), nil
}

// NewReceiver runs the base-OT setup (acting as base-OT *sender*; the
// random OTs return the κ seed pairs) and returns a ready extension
// receiver.
func NewReceiver(conn transport.Conn) (*Receiver, error) {
	pairs, err := BaseSend(conn, kappa)
	if err != nil {
		return nil, fmt.Errorf("ot: receiver setup: %w", err)
	}
	return newReceiver(conn, pairs), nil
}

// Reverse sets up the opposite direction on r's connection without
// public-key work: κ direct random OTs of this direction serve as its
// base OTs (DESIGN.md §16). r draws uniform choice bits, which become
// the new sender's secret s, and the pads they select become its column
// seeds. The peer calls Sender.Reverse at the same protocol point. The
// batch never comes from the pool, so precomputed batches stay aligned;
// it costs DeriveCost, one message from r to the peer.
func (r *Receiver) Reverse() (*Sender, error) {
	s := randomBits(kappa)
	pads, err := r.randomPads(s, prf.SeedSize)
	if err != nil {
		return nil, fmt.Errorf("ot: derived sender setup: %w", err)
	}
	seeds := make([]prf.Seed, kappa)
	for i := range seeds {
		copy(seeds[i][:], pads[i*prf.SeedSize:])
	}
	return newSender(r.conn, s, seeds), nil
}

// Reverse is the peer's half of Receiver.Reverse: both pads of each of
// the κ random OTs become the seed pairs of a receiver for the opposite
// direction.
func (s *Sender) Reverse() (*Receiver, error) {
	r0, r1, err := s.randomPads(kappa, prf.SeedSize)
	if err != nil {
		return nil, fmt.Errorf("ot: derived receiver setup: %w", err)
	}
	pairs := make([][2]prf.Seed, kappa)
	for i := range pairs {
		copy(pairs[i][0][:], r0[i*prf.SeedSize:])
		copy(pairs[i][1][:], r1[i*prf.SeedSize:])
	}
	return newReceiver(s.conn, pairs), nil
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

// expandColumns derives the T matrix of one batch from the column
// streams, sends the correction matrix u_i = t_i ⊕ G(k_i^1) ⊕ r for the
// choice vector r, and returns Tᵀ whose rows are the per-instance keys.
// The batch is padded to whole words with random choice bits: they
// belong to discarded OT instances.
//
// Each column reads its two streams at the batch's shared offset and
// writes a disjoint slice of uMsg, so the expansion parallelizes with
// byte-identical output; each worker reuses one row buffer.
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
	off := r.off
	parallel.For(kappa, 8, func(lo, hi int) {
		t := make([]byte, rowBytes)
		for i := lo; i < hi; i++ {
			u := uMsg[i*rowBytes : (i+1)*rowBytes]
			r.cols0[i].KeyStream(t, off)
			r.cols1[i].KeyStream(u, off)
			tm.SetRowBytes(i, t)
			prf.XORBytes(u, u, t)
			prf.XORBytes(u, u, rBytes)
		}
	})
	r.off += uint64(rowBytes)
	if err := r.conn.Send(uMsg); err != nil {
		return nil, err
	}
	return tm.Transpose(), nil
}

// expandColumns receives the peer's correction matrix for a batch of m
// OTs, applies the secret s correction per column, and returns Qᵀ whose
// rows are the instance keys. Column i reads stream i and writes only
// row i of the Q matrix.
func (s *Sender) expandColumns(m int) (*bitutil.Matrix, error) {
	mPad := int(padTo64(m))
	rowBytes := mPad / 8
	uMsg, err := transport.RecvSized(s.conn, "ot: extension matrix", kappa*rowBytes)
	if err != nil {
		return nil, err
	}
	qm := bitutil.NewMatrix(kappa, mPad)
	off := s.off
	parallel.For(kappa, 8, func(lo, hi int) {
		q := make([]byte, rowBytes)
		for i := lo; i < hi; i++ {
			s.cols[i].KeyStream(q, off)
			if s.s.Get(i) {
				prf.XORBytes(q, q, uMsg[i*rowBytes:(i+1)*rowBytes])
			}
			qm.SetRowBytes(i, q)
		}
	})
	s.off += uint64(rowBytes)
	return qm.Transpose(), nil
}
