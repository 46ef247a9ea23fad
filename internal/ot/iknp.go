package ot

import (
	"encoding/binary"
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
	s    [kappa / 8]byte // the κ secret selection bits, packed; XORed into q-rows for pad 1
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
	t     []byte         // the last batch's T, column-major; grow-only
	pool  Pool
}

// newSender builds an extension sender from its κ base OTs: the secret
// choice bits s and the seed k_i^{s_i} each one selected.
func newSender(conn transport.Conn, s []bool, seeds []prf.Seed) *Sender {
	snd := &Sender{conn: conn}
	packBits(snd.s[:], s)
	for i := range snd.cols {
		snd.cols[i] = prf.NewCTR(seeds[i])
	}
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

// packBits sets bit i of dst (byte i/8, bit i%8) for every set bits[i].
func packBits(dst []byte, bits []bool) {
	for i, b := range bits {
		if b {
			dst[i/8] |= 1 << (i % 8)
		}
	}
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

// derivedBase runs w direct random OTs as their receiver, on uniform
// choice bits s, and returns s and the pads they select as seeds: the
// base OTs of a Reverse or KKRT sender. The batch never comes from the
// pool, so precomputed batches stay aligned.
func (r *Receiver) derivedBase(w int) (s []bool, seeds []prf.Seed, err error) {
	s = randomBits(w)
	pads, err := r.randomPads(s, prf.SeedSize)
	if err != nil {
		return nil, nil, err
	}
	seeds = make([]prf.Seed, w)
	for i := range seeds {
		seeds[i] = prf.Seed(pads[i*prf.SeedSize:])
	}
	return s, seeds, nil
}

// derivedBase is the peer's half of Receiver.derivedBase: both pads of
// each of the w random OTs become one seed pair.
func (s *Sender) derivedBase(w int) ([][2]prf.Seed, error) {
	r0, r1, err := s.randomPads(w, prf.SeedSize)
	if err != nil {
		return nil, err
	}
	pairs := make([][2]prf.Seed, w)
	for i := range pairs {
		pairs[i] = [2]prf.Seed{prf.Seed(r0[i*prf.SeedSize:]), prf.Seed(r1[i*prf.SeedSize:])}
	}
	return pairs, nil
}

// Reverse sets up the opposite direction on r's connection without
// public-key work: κ direct random OTs of this direction serve as its
// base OTs (DESIGN.md §16). r's uniform choice bits become the new
// sender's secret s, and the pads they select become its column seeds.
// The peer calls Sender.Reverse at the same protocol point; it costs
// DeriveCost, one message from r to the peer.
func (r *Receiver) Reverse() (*Sender, error) {
	s, seeds, err := r.derivedBase(kappa)
	if err != nil {
		return nil, fmt.Errorf("ot: derived sender setup: %w", err)
	}
	return newSender(r.conn, s, seeds), nil
}

// Reverse is the peer's half of Receiver.Reverse: both pads of each of
// the κ random OTs become the seed pairs of a receiver for the opposite
// direction.
func (s *Sender) Reverse() (*Receiver, error) {
	pairs, err := s.derivedBase(kappa)
	if err != nil {
		return nil, fmt.Errorf("ot: derived receiver setup: %w", err)
	}
	return newReceiver(s.conn, pairs), nil
}

// padBatch is the number of OT instances whose pads are hashed per
// HashBlocks call: one 64×64 transpose block of the extension matrix.
const padBatch = 64

// tileBytes is the width of one expansion tile in bytes of every
// column: 1 024 instances, one 8-block KeyStream call per column. A
// sender tile of all κ columns is 16 KiB, small enough to live on its
// worker's stack.
const tileBytes = 128

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

// hashPads derives the pads of the n ≤ padBatch instances [base,
// base+n) of a batch from their rows: instance base+k's key is rows[k],
// hashed under tweak idx+base+k, and its pad lands at
// dst[(base+k)·msgLen:]. Pads of at most one block — the 16-byte labels,
// the ⌈2ℓ/8⌉-byte switch payloads, the ℓ/8-byte products of share
// multiplication — run the batched HashBlocks kernel, one AES sweep per
// block of instances, truncated to msgLen; wider ones fall back to
// per-instance derivation. Zero heap allocations either way.
func hashPads(dst []byte, rows *[padBatch]prf.Block, n, base int, idx uint64, msgLen int) {
	if msgLen > 16 {
		for k := 0; k < n; k++ {
			off := (base + k) * msgLen
			derivePad(dst[off:off+msgLen], idx+uint64(base+k), rows[k])
		}
		return
	}
	var out [padBatch]prf.Block
	prf.HashBlocks(out[:n], rows[:n], otTweak(idx+uint64(base)), 1)
	for k := 0; k < n; k++ {
		off := (base + k) * msgLen
		copy(dst[off:off+msgLen], out[k][:])
	}
}

// padTo64 rounds a batch size up to the matrix width IKNP expands: whole
// 64-bit words, the unit both of the transpose and of the idx counter.
func padTo64(m int) uint64 { return uint64(m+63) &^ 63 }

// The kernel below runs both extensions on a w-column bit matrix, one
// bit per instance in every column: IKNP at w = κ with columns of
// padTo64(m)/8 bytes, KKRT at w = KKRTWidth with columns of ⌈m/8⌉. No
// transpose of the matrix is built: rows come out of 64×64 blocks.

// growBytes returns (*buf)[:n], reallocating only when n exceeds its
// capacity: a receiver's column buffer grows once per session.
func growBytes(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// expandColumns is the receiver's half of a batch's expansion over w
// columns of colBytes bytes from byte off of each column's streams
// keys(i): column i gets t_i = G(k_i^0) in t and u_i = t_i ⊕ G(k_i^1) ⊕
// x_i in u, for the choice input x_i at x[i·xStride:] — stride 0 when
// every column has the same (IKNP's r), and x may be t itself (KKRT's
// code columns): x_i is read before t_i is written. A column writes only
// its own slices, so the output is the same at any worker count.
func expandColumns(t, u, x []byte, xStride, w, colBytes int, off uint64, keys func(i int) (g0, g1 prf.CTR)) {
	parallel.For(w, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ti, ui := t[i*colBytes:(i+1)*colBytes], u[i*colBytes:(i+1)*colBytes]
			g0, g1 := keys(i)
			g1.KeyStream(ui, off)
			prf.XORBytes(ui, ui, x[i*xStride:i*xStride+colBytes])
			g0.KeyStream(ti, off)
			prf.XORBytes(ui, ui, ti)
		}
	})
}

// deriveColumn writes bytes [off, off+len(q)) of the sender's column i,
// q_i = G(k_i^{s_i}) ⊕ s_i·u_i, into q, for g the stream under k_i^{s_i},
// u those bytes of u_i and s the secret bits packed. Row j of Q is then
// t_j ⊕ (x_j ∧ s).
func deriveColumn(q, u []byte, g *prf.CTR, off uint64, s []byte, i int) {
	g.KeyStream(q, off)
	if s[i/8]>>(i%8)&1 == 1 {
		prf.XORBytes(q, q, u)
	}
}

// deriveColumns turns a whole received matrix u of w columns into Q in
// place, one column per index of a parallel.For, with column i's stream
// key(i) — KKRT's sender, which expands each column's key once per
// batch. The IKNP sender instead derives tile by tile into its worker's
// stack (randomPads), so each tile is hashed while it is in cache. The
// message is the sender's to write: Conn.Send hands it over.
func deriveColumns(u, s []byte, w, colBytes int, off uint64, key func(i int) prf.CTR) {
	parallel.For(w, 8, func(lo, hi int) {
		q := make([]byte, colBytes)
		for i := lo; i < hi; i++ {
			g, ui := key(i), u[i*colBytes:(i+1)*colBytes]
			deriveColumn(q, ui, &g, off, s, i)
			copy(ui, q)
		}
	})
}

// eachTile runs fn over the tiles of a batch whose columns are colBytes
// long: tile t covers column bytes [c0, c0+n), c0 = t·tileBytes, i.e.
// instances [8·c0, 8·(c0+n)). The partition is a function of the batch
// size alone and a tile writes only its own instances' outputs, under
// tweaks fixed by their global index, so they are the same at any
// worker count.
func eachTile(colBytes int, fn func(c0, n int)) {
	parallel.For((colBytes+tileBytes-1)/tileBytes, 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			c0 := t * tileBytes
			fn(c0, min(tileBytes, colBytes-c0))
		}
	})
}

// eachBlock runs fn(base, n) over the 64-instance blocks [base, base+n)
// of an m-instance batch, tile by tile.
func eachBlock(m int, fn func(base, n int)) {
	eachTile((m+7)/8, func(c0, n int) {
		for b := 8 * c0; b < min(8*(c0+n), m); b += padBatch {
			fn(b, min(padBatch, m-b))
		}
	})
}

// blockRows transposes the block at instance base of w columns of
// colBytes bytes (column i at cols[i·colBytes:], instance j its bit j)
// into up to 64 w-bit rows: row k, at rows[k·w/8:], gets bit base+k of
// every column, column i at bit i. Bits past a column's end read zero.
func blockRows(rows, cols []byte, w, colBytes, base int) {
	var blk [64]uint64
	rb, off := w/8, base/8
	n, tail := len(rows)/rb, colBytes-off
	for g := 0; g < w/64; g++ {
		for k := range blk {
			c := cols[(64*g+k)*colBytes+off:]
			if tail < 8 { // a whole-byte column's last, short word
				var b [8]byte
				copy(b[:], c[:tail])
				c = b[:]
			}
			blk[k] = binary.LittleEndian.Uint64(c)
		}
		bitutil.Transpose64(&blk)
		for k, v := range blk[:n] {
			binary.LittleEndian.PutUint64(rows[k*rb+8*g:], v)
		}
	}
}

// blockCols is blockRows' inverse: it writes the rows (instances base,
// base+1, …) into the block of every column, zero past the last row.
func blockCols(cols, rows []byte, w, colBytes, base int) {
	var blk [64]uint64
	rb, off := w/8, base/8
	n, tail := len(rows)/rb, colBytes-off
	for g := 0; g < w/64; g++ {
		clear(blk[n:])
		for k := range blk[:n] {
			blk[k] = binary.LittleEndian.Uint64(rows[k*rb+8*g:])
		}
		bitutil.Transpose64(&blk)
		for i, v := range blk {
			c := cols[(64*g+i)*colBytes+off:]
			if tail < 8 { // a whole-byte column's last, short word
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				copy(c[:tail], b[:])
				continue
			}
			binary.LittleEndian.PutUint64(c, v)
		}
	}
}
