package ot

import (
	"fmt"
	"time"

	"secyan/internal/bitutil"
	"secyan/internal/obs"
	"secyan/internal/parallel"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// kappa is the number of base OTs / the width of the IKNP matrix.
const kappa = 128

// observeExt records one online extension batch of m OTs on the obs
// layer when the returned function runs; with obs off it costs one
// atomic load.
func observeExt(m int) func() {
	if !obs.Enabled() {
		return func() {}
	}
	startT := time.Now()
	return func() {
		mExtOTs.Add(int64(m))
		mExtBatches.Inc()
		mExtNs.Observe(time.Since(startT).Nanoseconds())
	}
}

// Sender is the message-sending endpoint of an IKNP OT-extension session.
// After a one-time Setup (κ base OTs in the reverse direction), every call
// to Send transfers an arbitrary batch of message pairs using only
// symmetric cryptography, in a single round trip.
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
// dst[j·stride·msgLen : j·stride·msgLen+msgLen]. Pads of at most one
// block — the 16-byte labels and switch payloads, the ℓ/8-byte products
// of share multiplication — run the batched HashBlocks kernel, one row
// gather and one AES sweep per padBatch instances, truncated to msgLen;
// wider ones fall back to per-instance derivation. Zero heap allocations
// either way.
func hashRowPads(dst []byte, stride int, rows *bitutil.Matrix, mask *[kappa / 8]byte, idx uint64, lo, hi, msgLen int) {
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
				off := (base + k) * stride * msgLen
				copy(dst[off:off+msgLen], out[k][:])
			}
		} else {
			for k := 0; k < n; k++ {
				off := (base + k) * stride * msgLen
				derivePad(dst[off:off+msgLen], idx+uint64(base+k), src[k])
			}
		}
	}
}

// Receive performs len(choices) OTs, returning the chosen message of each
// pair sent by the peer's matching Send call. All messages have msgLen
// bytes. When the pool holds a precomputed batch of matching dimensions
// it is consumed by derandomization; otherwise the direct IKNP batch
// runs. Both paths produce messages of identical distribution, so
// callers never observe which one served them.
func (r *Receiver) Receive(choices []bool, msgLen int) ([][]byte, error) {
	m := len(choices)
	if m == 0 {
		return nil, nil
	}
	defer observeExt(m)()
	if b := r.pool.take(m, msgLen); b != nil {
		return r.receiveDerandomized(b, choices)
	}
	return r.receiveDirect(choices, msgLen)
}

func (r *Receiver) receiveDirect(choices []bool, msgLen int) ([][]byte, error) {
	m := len(choices)
	sp := obs.Begin("ot", "ot.ext.recv")
	defer sp.EndN(int64(m))

	tt, err := r.expandColumns(choices)
	if err != nil {
		return nil, err
	}

	ct, err := transport.RecvSized(r.conn, "ot: extension ciphertexts", 2*m*msgLen)
	if err != nil {
		return nil, err
	}
	// OT instances are independent: instance j reads row j of Tᵀ and its
	// own ciphertext slice and writes only out[j]. All outputs share one
	// flat backing array, pads are hashed in padBatch-sized AES sweeps
	// straight into it, and the loop performs no per-instance allocation.
	out := make([][]byte, m)
	outBack := make([]byte, m*msgLen)
	parallel.For(m, 32, func(lo, hi int) {
		hashRowPads(outBack, 1, tt, nil, r.idx, lo, hi, msgLen)
		for j := lo; j < hi; j++ {
			msg := outBack[j*msgLen : (j+1)*msgLen]
			c := ct[2*j*msgLen : (2*j+1)*msgLen]
			if choices[j] {
				c = ct[(2*j+1)*msgLen : (2*j+2)*msgLen]
			}
			prf.XORBytes(msg, msg, c)
			out[j] = msg
		}
	})
	r.idx += padTo64(m)
	return out, nil
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

// Send performs len(pairs) OTs as sender; pairs[j][c] is delivered iff the
// receiver chose c. All messages must have equal length. Like Receive, a
// matching pooled batch short-circuits to the derandomized path.
func (s *Sender) Send(pairs [][2][]byte) error {
	m := len(pairs)
	if m == 0 {
		return nil
	}
	defer observeExt(m)()
	msgLen := len(pairs[0][0])
	for _, p := range pairs {
		if len(p[0]) != msgLen || len(p[1]) != msgLen {
			return fmt.Errorf("ot: all messages must have length %d", msgLen)
		}
	}
	if b := s.pool.take(m, msgLen); b != nil {
		return s.sendDerandomized(b, pairs, msgLen)
	}
	return s.sendDirect(pairs, msgLen)
}

func (s *Sender) sendDirect(pairs [][2][]byte, msgLen int) error {
	m := len(pairs)
	sp := obs.Begin("ot", "ot.ext.send")
	defer sp.EndN(int64(m))

	qt, err := s.expandColumns(m)
	if err != nil {
		return err
	}

	// Instance j derives both pads from row j alone and writes the
	// disjoint ciphertext slice ct[2j·msgLen : (2j+2)·msgLen]; pads are
	// hashed in batched AES sweeps (one per correlation side) directly
	// into the ciphertext buffer, so no per-instance allocation.
	ct := make([]byte, 2*m*msgLen)
	parallel.For(m, 32, func(lo, hi int) {
		hashRowPads(ct, 2, qt, nil, s.idx, lo, hi, msgLen)
		hashRowPads(ct[msgLen:], 2, qt, &s.sRow, s.idx, lo, hi, msgLen)
		for j := lo; j < hi; j++ {
			c0 := ct[2*j*msgLen : (2*j+1)*msgLen]
			c1 := ct[(2*j+1)*msgLen : (2*j+2)*msgLen]
			prf.XORBytes(c0, c0, pairs[j][0])
			prf.XORBytes(c1, c1, pairs[j][1])
		}
	})
	s.idx += padTo64(m)
	return s.conn.Send(ct)
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
