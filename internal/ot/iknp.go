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
	t     []byte         // the last batch's T, column-major; grow-only
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

// blockRows transposes one 64-instance block of a column-major κ-row bit
// matrix into the instances' κ-bit rows: column i's 64 bits of the block
// are the little-endian word at cols[i·stride+off:], and row j gets bit
// j of every column, column i at bit i — the rows bitutil.Matrix's
// Transpose would give.
func blockRows(rows *[padBatch]prf.Block, cols []byte, stride, off int) {
	var blk [64]uint64
	for g := 0; g < kappa/64; g++ {
		for k := range blk {
			blk[k] = binary.LittleEndian.Uint64(cols[(64*g+k)*stride+off:])
		}
		bitutil.Transpose64(&blk)
		for j := range blk {
			binary.LittleEndian.PutUint64(rows[j][8*g:], blk[j])
		}
	}
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

// eachTile runs fn over the expansion tiles of a batch whose columns are
// rowBytes long: tile t covers column bytes [c0, c0+n), c0 = t·tileBytes,
// i.e. instances [8·c0, 8·(c0+n)). The partition is a function of the
// batch size alone and every tile writes only its own instances' pads,
// so the pads are byte-identical at every worker count.
func eachTile(rowBytes int, fn func(c0, n int)) {
	parallel.For((rowBytes+tileBytes-1)/tileBytes, 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			c0 := t * tileBytes
			fn(c0, min(tileBytes, rowBytes-c0))
		}
	})
}

// expandColumns writes the T matrix of one batch column-major into the
// receiver's grow-only buffer — column i, t_i = G(k_i^0), at
// [i·rowBytes, (i+1)·rowBytes) — sends the correction matrix u_i = t_i ⊕
// G(k_i^1) ⊕ r for the choice vector r, and returns T, valid until the
// next batch. The batch is padded to whole words with random choice
// bits: they belong to discarded OT instances.
//
// Each column reads its two streams at the batch's shared offset and
// writes disjoint slices of T and uMsg, so the expansion parallelizes
// with byte-identical output. u leaves before anything is hashed, so the
// peer's expansion overlaps this end's hashing.
func (r *Receiver) expandColumns(choices []bool) ([]byte, error) {
	m := len(choices)
	rowBytes := int(padTo64(m)) / 8
	rBytes := make([]byte, rowBytes)
	prf.NewPRG(prf.RandomSeed()).Read(rBytes)
	for j, c := range choices {
		if bit := byte(1) << (j % 8); c {
			rBytes[j/8] |= bit
		} else {
			rBytes[j/8] &^= bit
		}
	}
	if cap(r.t) < kappa*rowBytes {
		r.t = make([]byte, kappa*rowBytes)
	}
	tm := r.t[:kappa*rowBytes]
	uMsg := make([]byte, kappa*rowBytes)
	off := r.off
	parallel.For(kappa, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t, u := tm[i*rowBytes:(i+1)*rowBytes], uMsg[i*rowBytes:(i+1)*rowBytes]
			r.cols0[i].KeyStream(t, off)
			r.cols1[i].KeyStream(u, off)
			prf.XORBytes(u, u, t)
			prf.XORBytes(u, u, rBytes)
		}
	})
	r.off += uint64(rowBytes)
	if err := r.conn.Send(uMsg); err != nil {
		return nil, err
	}
	return tm, nil
}
