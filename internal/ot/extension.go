package ot

import (
	"encoding/binary"
	"fmt"

	"secyan/internal/bitutil"
	"secyan/internal/parallel"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// kappa is the number of base OTs and the width of the extension's
// correlation: every OT instance is one κ-bit row t_j, and its sender
// holds q_j = t_j ⊕ (r_j ∧ s).
const kappa = 128

// Sender is the message-sending endpoint of an OT-extension session
// (SoftSpoken over IKNP's correlation, softspoken.go). After a one-time
// setup (κ base OTs in the reverse direction and the receiver's GGM
// corrections), every batch — random, correlated or chosen-message
// (correlated.go) — uses only symmetric cryptography and at most one
// round trip. The keys the setup produced may serve many streams
// (Sender.Stream); the rest is the stream's own.
type Sender struct {
	conn transport.Conn
	*senderKeys
	stream uint32      // the stream this end serves: its keystream window and hash word
	off    uint64      // byte offset of the next batch in every leaf's stream, inside the window
	idx    uint64      // the stream's OT counter, for hash tweak freshness
	serial uint64      // Δ-OT batches opened so far (delta.go)
	q      []prf.Block // a direct Δ-OT batch's rows (delta.go); grow-only
	pool   Pool        // precomputed random-OT batches (random.go)
}

// senderKeys is what a direction's setup gives its sender, read-only
// afterwards.
type senderKeys struct {
	s [kappa / 8]byte // Δ: every chunk's punctured leaf, packed, chunk j at bits [kj, kj+k); XORed into q-rows for pad 1; bit lsbBit is 1
	// leaves holds the seeds of the 2^k − 1 leaves every chunk's
	// punctured tree reveals: chunk j's leaf x at index j·2^k + (x ⊕ Δ_j).
	// Index j·2^k, the punctured leaf, holds the zero seed, so a chunk's
	// sixteen schedules, expanded per tile on the worker's stack, are one
	// LeafSums call. Held schedules would be 96 KiB a direction against
	// these 8 KiB, for 5 µs a tile.
	leaves [chunks * chunkLeaves]prf.Seed
}

// Receiver is the choosing endpoint of an OT-extension session. It
// keeps every leaf seed of every chunk's tree and expands a chunk's
// schedules per batch, inside the chunk's worker.
type Receiver struct {
	conn   transport.Conn
	leaves *[chunks * chunkLeaves]prf.Seed // chunk j's leaf x at j·2^k + x; read-only after setup
	stream uint32
	off    uint64 // byte offset of the next batch in every leaf's stream, inside the window
	idx    uint64 // the stream's OT counter, equal to the sender's
	serial uint64 // Δ-OT batches opened so far, equal to the sender's
	t      []byte // the last batch's T, column-major, and a direct Δ-OT batch's rows; grow-only
	pool   Pool
}

// Stream returns an end of s's extension for stream id on conn: it
// shares s's keys and owns its counters, pool and scratch. Its batches
// expand the keystream window of id (windowStart) and hash under the
// word id, so no two streams of one set of keys ever expand the same
// keystream bytes or query π at the same (input, tweak) (DESIGN.md §3).
// The peer calls Receiver.Stream with the same id.
func (s *Sender) Stream(conn transport.Conn, id uint32) *Sender {
	return &Sender{conn: conn, senderKeys: s.senderKeys, stream: id, off: windowStart(id)}
}

// Stream is Sender.Stream's peer: an end of r's extension for stream id.
func (r *Receiver) Stream(conn transport.Conn, id uint32) *Receiver {
	return &Receiver{conn: conn, leaves: r.leaves, stream: id, off: windowStart(id)}
}

// Word returns the stream word the sender's Δ-correlated hashes carry:
// its stream id. A garbler keys its circuits' hashes with it (gc).
func (s *Sender) Word() prf.Word { return prf.Word(s.stream) }

// Word returns the receiver's stream word, the sender's.
func (r *Receiver) Word() prf.Word { return prf.Word(r.stream) }

// windowBytes is the length of a stream's window in every leaf's (and
// every KKRT column's) keystream: stream id owns bytes [id·2^32,
// (id+1)·2^32), 2^35 OTs.
const windowBytes = 1 << 32

// windowStart returns the first keystream byte of stream id's window.
func windowStart(id uint32) uint64 { return uint64(id) << 32 }

// WindowError reports a batch that would run past the end of its
// stream's keystream window. A stream never wraps into the next one's
// window: its batches would repeat another stream's OTs.
type WindowError struct {
	Stream uint32
	Need   uint64 // keystream bytes the batch needs
	Left   uint64 // bytes left in the window
}

func (e *WindowError) Error() string {
	return fmt.Sprintf("ot: stream %d has %d bytes of keystream window left, a batch needs %d", e.Stream, e.Left, e.Need)
}

// fits reports, as a *WindowError, a batch of n keystream bytes that
// does not fit in the rest of stream id's window from off. Both ends
// check before a batch's first message, so they refuse the same batch.
func fits(off uint64, id uint32, n uint64) error {
	// Modulo 2^64, which the last window's end reaches.
	if left := windowStart(id) + windowBytes - off; n > left {
		return &WindowError{Stream: id, Need: n, Left: left}
	}
	return nil
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

// lsbBit is the bit of Δ that lands in a row's prf.Block.LSB (byte 15,
// bit 0): the point-and-permute bit of a garbled circuit whose free-XOR
// offset is Δ (delta.go).
const lsbBit = 8 * 15

// senderChoices draws the κ base-OT choice bits c of an extension
// sender: uniform, but for c[lsbBit] = 0, so that Δ = ¬c has lsb(Δ) = 1.
// Δ keeps 127 uniform bits.
func senderChoices() []bool {
	c := randomBits(kappa)
	c[lsbBit] = false
	return c
}

// NewSender runs the base-OT setup (acting as base-OT *receiver* with κ
// random choice bits, senderChoices), receives the peer's GGM
// corrections and returns a ready extension sender.
func NewSender(conn transport.Conn) (*Sender, error) {
	c := senderChoices()
	seeds, err := BaseRecv(conn, c)
	if err != nil {
		return nil, fmt.Errorf("ot: sender setup: %w", err)
	}
	return recvTrees(conn, 0, c, seeds)
}

// NewReceiver runs the base-OT setup (acting as base-OT *sender*; the
// random OTs return the κ seed pairs), sends the GGM corrections that
// puncture the peer's trees and returns a ready extension receiver.
func NewReceiver(conn transport.Conn) (*Receiver, error) {
	pairs, err := BaseSend(conn, kappa)
	if err != nil {
		return nil, fmt.Errorf("ot: receiver setup: %w", err)
	}
	return sendTrees(conn, 0, pairs)
}

// recvTrees receives the GGM corrections of a new direction, exactly
// treeBytes, and builds its sender for stream id from the base OTs'
// choice bits c and chosen seeds.
func recvTrees(conn transport.Conn, id uint32, c []bool, seeds []prf.Seed) (*Sender, error) {
	corr, err := transport.RecvSized(conn, "ot: GGM corrections", treeBytes)
	if err != nil {
		return nil, err
	}
	s := newSender(conn, c, seeds, corr)
	s.stream, s.off = id, windowStart(id)
	return s, nil
}

// sendTrees builds a new direction's receiver for stream id from the
// base OTs' seed pairs and sends the GGM corrections its peer's sender
// needs.
func sendTrees(conn transport.Conn, id uint32, pairs [][2]prf.Seed) (*Receiver, error) {
	r, corr := newReceiver(conn, pairs)
	r.stream, r.off = id, windowStart(id)
	if err := conn.Send(corr); err != nil {
		return nil, err
	}
	return r, nil
}

// derivedBase runs len(s) direct random OTs as their receiver, on the
// choice bits s, and returns the pads they select as seeds: the base OTs
// of a Reverse or KKRT sender. The batch never comes from the pool, so
// precomputed batches stay aligned.
func (r *Receiver) derivedBase(s []bool) ([]prf.Seed, error) {
	pads, err := r.randomPads(s, prf.SeedSize)
	if err != nil {
		return nil, err
	}
	seeds := make([]prf.Seed, len(s))
	for i := range seeds {
		seeds[i] = prf.Seed(pads[i*prf.SeedSize:])
	}
	return seeds, nil
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
// base OTs (DESIGN.md §3). r's choice bits (senderChoices, so this
// sender's lsb(Δ) is 1 too) and the pads they select become the new
// sender's base-OT output, and the peer, the new
// receiver, answers with its GGM corrections. The peer calls
// Sender.Reverse at the same protocol point; it costs DeriveCost, one
// message each way. The new direction serves r's stream.
func (r *Receiver) Reverse() (*Sender, error) {
	c := senderChoices()
	seeds, err := r.derivedBase(c)
	if err != nil {
		return nil, fmt.Errorf("ot: derived sender setup: %w", err)
	}
	s, err := recvTrees(r.conn, r.stream, c, seeds)
	if err != nil {
		return nil, fmt.Errorf("ot: derived sender setup: %w", err)
	}
	return s, nil
}

// Reverse is the peer's half of Receiver.Reverse: both pads of each of
// the κ random OTs become the seed pairs of a receiver for the opposite
// direction, which sends its GGM corrections back.
func (s *Sender) Reverse() (*Receiver, error) {
	pairs, err := s.derivedBase(kappa)
	if err != nil {
		return nil, fmt.Errorf("ot: derived receiver setup: %w", err)
	}
	r, err := sendTrees(s.conn, s.stream, pairs)
	if err != nil {
		return nil, fmt.Errorf("ot: derived receiver setup: %w", err)
	}
	return r, nil
}

// padBatch is the number of OT instances whose pads are hashed per
// HashBlocks call: one 64×64 transpose block of the extension matrix.
const padBatch = 64

// tileBytes is the width of one sender tile in bytes of every column:
// 1 024 instances, eight counter blocks of every leaf. A tile of all κ
// columns is 16 KiB, small enough to live on its worker's stack.
const tileBytes = 128

// otTweak maps the stream's OT instance counter into the OT
// extension's tweak domain of the fixed-key permutation (see the Site*
// scheme in prf/fixedkey.go); the stream word is the tweak's high
// word. The two pads of one instance — rows q_j and q_j ⊕ s — share the
// tweak by design: that correlated pair is the correlation-robustness
// game the MMO hash is assumed to win.
func otTweak(idx uint64) uint64 { return prf.SiteOT | idx }

// derivePad writes the len(dst)-byte pad of OT instance idx of the
// stream with word w into dst: the fixed-key AES MMO hash of the
// instance's κ-bit row, truncated for narrower messages and
// KDF-expanded (HashToWidthAES) for wider ones. Every branch is
// allocation-free, so callers can pass stack buffers.
func derivePad(dst []byte, w prf.Word, idx uint64, row prf.Block) {
	if len(dst) <= 16 {
		h := w.HashBlock(row, otTweak(idx))
		copy(dst, h[:len(dst)])
		return
	}
	w.HashToWidthAES(dst, row, otTweak(idx))
}

// hashPads derives the pads of the n ≤ padBatch instances [base,
// base+n) of a batch from their rows: instance base+k's key is rows[k],
// hashed under tweak (w, idx+base+k), and its pad lands at
// dst[(base+k)·msgLen:]. Pads of at most one block — the 16-byte labels,
// the ⌈2ℓ/8⌉-byte switch payloads, the ℓ/8-byte products of share
// multiplication — run the batched HashBlocks kernel, one AES sweep per
// block of instances, truncated to msgLen; wider ones fall back to
// per-instance derivation. Zero heap allocations either way.
func hashPads(dst []byte, rows *[padBatch]prf.Block, n, base int, w prf.Word, idx uint64, msgLen int) {
	if msgLen > 16 {
		for k := 0; k < n; k++ {
			off := (base + k) * msgLen
			derivePad(dst[off:off+msgLen], w, idx+uint64(base+k), rows[k])
		}
		return
	}
	var out [padBatch]prf.Block
	w.HashBlocks(out[:n], rows[:n], otTweak(idx+uint64(base)), 1)
	for k := 0; k < n; k++ {
		off := (base + k) * msgLen
		copy(dst[off:off+msgLen], out[k][:])
	}
}

// padTo64 rounds a batch size up to the width the extension expands:
// whole 64-bit words, the unit both of the transpose and of the idx
// counter.
func padTo64(m int) uint64 { return uint64(m+63) &^ 63 }

// streamAdvance is how far a batch of rowBytes bytes per column moves
// the leaf streams: whole AES blocks, so every sender tile starts on a
// block boundary and is one 8-block keystream call per leaf.
func streamAdvance(rowBytes int) uint64 { return uint64(rowBytes+15) &^ 15 }

// growBytes returns (*buf)[:n], reallocating only when n exceeds its
// capacity: a receiver's batch scratch grows with the largest batch of
// its session.
func growBytes(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
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
