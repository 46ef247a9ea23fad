package ot

import (
	"fmt"
	"sync"

	"secyan/internal/obs"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// This file implements Beaver-style OT precomputation on top of the OT
// extension, and the random OT every other batch kind is built on.
// FillRandom runs the input-independent half of an extension batch ahead
// of time: the receiver draws random choice bits, both sides expand the
// leaf streams and derive the per-instance pads, and only the correction
// message (one column per chunk, ExtOfflineCost) crosses the wire. The
// resulting random OTs — the sender holds pads (r⁰ⱼ, r¹ⱼ), the receiver
// holds (bⱼ, r^{bⱼ}ⱼ) — wait in a Pool. A
// later batch of matching dimensions is then served by derandomization
// (Beaver 1995): the receiver sends one correction bit dⱼ = cⱼ ⊕ bⱼ per
// instance and the sender swaps the pads of every instance whose bit is
// set, after which the receiver's stored pad is the one its wanted choice
// cⱼ selects. The online round structure is unchanged (receiver speaks
// first), it costs ⌈m/8⌉ bytes instead of the matrix, and it uses no
// cryptography beyond XOR.
//
// sendRandom/receiveRandom serve the random OTs themselves, with the
// receiver choosing its bits: the pads are the outputs, so a direct batch
// is the matrix and nothing else, and a pooled one is the correction bits
// and nothing else. Correlated and chosen-message batches (correlated.go)
// add the sender's one reply; the derived setups (Reverse, kkrt.go) take
// their random OTs direct, from randomPads. Δ-OT batches (delta.go) share
// the expansion and the pool, with unhashed rows instead of pads.

// Pool metrics: how online batches were served (a miss is any batch
// that ran the direct protocol, whether the pool was empty or held
// mismatched material).
var (
	mPoolHits   = obs.NewCounter("secyan_ot_pool_hit_total", "Extension batches served from a precomputed random-OT pool.")
	mPoolMisses = obs.NewCounter("secyan_ot_pool_miss_total", "Extension batches that ran the direct protocol (pool empty or mismatched).")
)

// randBatch is one precomputed batch: random OTs with msgLen-byte pads,
// or Δ-OTs (msgLen deltaKind, delta.go). Each endpoint stores only its
// own half; pads and rows are flat m×msgLen (m×16) arrays.
type randBatch struct {
	m      int
	msgLen int
	r0, r1 []byte      // sender: the two random pads per instance
	delta  *DeltaBatch // sender of a Δ-OT batch: its rows
	bits   []bool      // receiver: random choice bits
	rc     []byte      // receiver: the pad of the chosen side, r^{bⱼ}ⱼ, or a Δ-OT batch's rows t_j
	serial uint64      // receiver of a Δ-OT batch: its serial
}

// Pool is a FIFO of precomputed random-OT batches attached to a Sender or
// Receiver. Batches are consumed strictly in fill order; because the two
// endpoints fill and drain in protocol lockstep, their pools stay head-
// aligned without any coordination messages.
type Pool struct {
	mu      sync.Mutex
	batches []*randBatch
}

func (p *Pool) push(b *randBatch) {
	p.mu.Lock()
	p.batches = append(p.batches, b)
	p.mu.Unlock()
}

// take pops the head batch when it matches the requested dimensions. A
// non-empty pool whose head mismatches means the execution has diverged
// from the precomputed plan; the remaining material can never line up
// again, so it is dropped wholesale and the caller falls back to the
// direct protocol. Both endpoints reach the same verdict because their
// fill and drain sequences are mirror images.
func (p *Pool) take(m, msgLen int) *randBatch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.batches) == 0 {
		mPoolMisses.Inc()
		return nil
	}
	head := p.batches[0]
	if head.m != m || head.msgLen != msgLen {
		p.batches = nil
		mPoolMisses.Inc()
		return nil
	}
	p.batches[0] = nil // the backing array must not keep consumed pads alive
	p.batches = p.batches[1:]
	mPoolHits.Inc()
	return head
}

// open takes the pool batch that a batch of m OTs of width msgLen
// derandomizes, nil when it runs direct, and starts the span of the
// kernel that runs it.
func (p *Pool) open(m, msgLen int, direct, derand *obs.Kernel) (*randBatch, obs.Span) {
	if b := p.take(m, msgLen); b != nil {
		return b, derand.Begin()
	}
	return nil, direct.Begin()
}

// Len reports the number of unconsumed precomputed batches.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.batches)
}

// Clear discards all precomputed batches. Both endpoints must clear at
// the same protocol point or subsequent batches will desynchronize.
func (p *Pool) Clear() {
	p.mu.Lock()
	p.batches = nil
	p.mu.Unlock()
}

// Pool returns the sender's precomputed random-OT pool.
func (s *Sender) Pool() *Pool { return &s.pool }

// Pool returns the receiver's precomputed random-OT pool.
func (r *Receiver) Pool() *Pool { return &r.pool }

// rowSink is what a sender's batch makes of its rows q_j: both pads of
// every instance, hashed (a random OT), the rows themselves (a Δ-OT
// batch, delta.go), or a product batch's sums and reply (product.go). A
// concrete type rather than a callback, so that a tile's rows stay on
// its worker's stack.
type rowSink struct {
	r0, r1 []byte // the pads, msgLen bytes per instance
	msgLen int
	word   prf.Word     // the stream word of the pads' tweaks
	idx    uint64       // the OT index of the batch's first instance
	q      []prf.Block  // a Δ-OT batch's rows; nil for pads
	prod   *productSend // a product batch, which hashes its own pads (product.go)
}

// put takes the rows of the n instances [base, base+n).
func (o *rowSink) put(rows *[padBatch]prf.Block, n, base int, delta *[kappa / 8]byte) {
	if o.q != nil {
		copy(o.q[base:base+n], rows[:n])
		return
	}
	if o.prod != nil {
		o.prod.put(rows, n, base, delta, o.word, o.idx)
		return
	}
	hashPads(o.r0, rows, n, base, o.word, o.idx, o.msgLen)
	for j := range rows[:n] {
		prf.XORBytes(rows[j][:], rows[j][:], delta[:])
	}
	hashPads(o.r1, rows, n, base, o.word, o.idx, o.msgLen)
}

// expand runs the input-independent half of one extension batch of m OTs
// as the sender: it receives the correction message and hands every row
// q_j to out. Nothing is sent.
//
// The expansion runs tile by tile (eachTile): a worker derives every
// chunk's columns of its tile into a κ×tileBytes scratch on its stack
// (tileSums, from the leaf seeds of setup) and takes the rows straight
// out of its 64×64 transpose blocks, so no κ×m matrix and no transpose
// of one is ever built. The outputs and the wire message
// are the only O(m) allocations. A batch past the stream's keystream
// window is a *WindowError, before anything is received.
func (s *Sender) expand(m int, out *rowSink) error {
	rowBytes := int(padTo64(m)) / 8
	if err := fits(s.off, s.stream, streamAdvance(rowBytes)); err != nil {
		return err
	}
	u, err := transport.RecvSized(s.conn, "ot: extension matrix", chunks*rowBytes)
	if err != nil {
		return err
	}
	off := s.off
	eachTile(rowBytes, func(c0, n int) {
		var q [kappa * tileBytes]byte
		var rows [padBatch]prf.Block
		s.tileSums(&q, n, off+uint64(c0))
		for j := 0; j < chunks; j++ {
			uj := u[j*rowBytes+c0 : j*rowBytes+c0+n]
			for i := j * chunkBits; i < (j+1)*chunkBits; i++ {
				if s.s[i/8]>>(i%8)&1 == 1 {
					qi := q[i*tileBytes : i*tileBytes+n]
					prf.XORBytes(qi, qi, uj)
				}
			}
		}
		for b := 0; b < n && 8*(c0+b) < m; b += 8 {
			base := 8 * (c0 + b)
			blockRows(prf.BlockBytes(rows[:]), q[:], kappa, tileBytes, 8*b)
			out.put(&rows, min(padBatch, m-base), base, &s.s)
		}
	})
	s.off += streamAdvance(rowBytes)
	return nil
}

// tileSums writes every chunk's k columns of one tile into q, n bytes of
// the leaf streams from offset at: column kj + b, at q[(kj+b)·tileBytes:],
// is ⊕_{y_b = 1} G(leaf y) over chunk j's leaves y ≠ 0. A chunk's
// schedules are expanded here, sixteen at a time.
func (s *senderKeys) tileSums(q *[kappa * tileBytes]byte, n int, at uint64) {
	var keys [chunkLeaves]prf.CTR
	if !leafKernel {
		var g leafTiles
		for j := 0; j < chunks; j++ {
			prf.NewCTRs(keys[1:], s.leaves[j*chunkLeaves+1:(j+1)*chunkLeaves])
			chunkTile(q[j*chunkBits*tileBytes:], tileBytes, &g, chunkBits, n, at, keys[1:], 1)
		}
		return
	}
	var g laneScratch
	for j := 0; j < chunks; j++ {
		prf.NewCTRs(keys[:], s.leaves[j*chunkLeaves:(j+1)*chunkLeaves])
		chunkLanes(&g, q[j*chunkBits*tileBytes:], nil, tileBytes, chunkBits, n, at, keys[:], 1)
	}
}

// randomPads runs one extension batch of m random OTs as the sender and
// returns both pads of every instance, H(q_j) and H(q_j ⊕ Δ), flat
// m×msgLen each: the sender's random-OT outputs.
func (s *Sender) randomPads(m, msgLen int) ([]byte, []byte, error) {
	if msgLen <= 0 {
		return nil, nil, fmt.Errorf("ot: random-OT message length %d", msgLen)
	}
	out := rowSink{r0: make([]byte, m*msgLen), r1: make([]byte, m*msgLen), msgLen: msgLen, word: s.Word(), idx: s.idx}
	if err := s.expand(m, &out); err != nil {
		return nil, nil, err
	}
	s.idx += padTo64(m)
	return out.r0, out.r1, nil
}

// expand is the receiver half of Sender.expand: it sends the correction
// message for the given choice bits and returns the batch's columns t,
// rowBytes each, and extra bytes of scratch for the caller, both in the
// session's grow-only buffer, valid until the next batch. Every chunk's
// choice input is the choice vector r, padded to whole words with zero
// bits, as KKRT pads its codes: those instances are discarded. u leaves
// before the caller reads a row, so the peer's derivation overlaps this
// end's. A batch past the stream's keystream window is a *WindowError,
// before anything is sent.
func (r *Receiver) expand(choices []bool, extra int) (t, scratch []byte, rowBytes int, err error) {
	x := make([]byte, padTo64(len(choices))/8)
	packBits(x, choices)
	return r.expandBits(x, extra)
}

// expandBits is expand on choices packed into x, bit j of byte j/8 for
// instance j, len(x) a multiple of 8.
func (r *Receiver) expandBits(x []byte, extra int) (t, scratch []byte, rowBytes int, err error) {
	rowBytes = len(x)
	if err := fits(r.off, r.stream, streamAdvance(rowBytes)); err != nil {
		return nil, nil, 0, err
	}
	buf, u := growBytes(&r.t, kappa*rowBytes+extra), make([]byte, chunks*rowBytes)
	t, scratch = buf[:kappa*rowBytes], buf[kappa*rowBytes:]
	expandChunks(t, u, x, 0, chunks, chunkBits, rowBytes, r.off, r.leaves[:])
	r.off += streamAdvance(rowBytes)
	return t, scratch, rowBytes, r.conn.Send(u)
}

// randomPads is the receiver half of Sender.randomPads: it returns the
// chosen-side pad H(t_j) of every instance, flat m×msgLen.
func (r *Receiver) randomPads(choices []bool, msgLen int) ([]byte, error) {
	if msgLen <= 0 {
		return nil, fmt.Errorf("ot: random-OT message length %d", msgLen)
	}
	t, _, rowBytes, err := r.expand(choices, 0)
	if err != nil {
		return nil, err
	}
	m := len(choices)
	rc := make([]byte, m*msgLen)
	idx := r.idx
	eachBlock(m, func(base, n int) {
		var rows [padBatch]prf.Block
		blockRows(prf.BlockBytes(rows[:]), t, kappa, rowBytes, base)
		hashPads(rc, &rows, n, base, r.Word(), idx, msgLen)
	})
	r.idx += padTo64(m)
	return rc, nil
}

// FillRandom executes the offline half of one extension batch of m OTs
// with msgLen-byte messages and pushes the material onto the sender's
// pool. The peer must run Receiver.FillRandom with identical dimensions;
// the exchange is half a round (receiver sends the matrix, sender only
// receives), so matched calls cannot deadlock.
func (s *Sender) FillRandom(m, msgLen int) error {
	if m == 0 {
		return nil
	}
	sp := obs.Begin("ot", "ot.pool.fill.send")
	defer sp.EndN(int64(m))
	r0, r1, err := s.randomPads(m, msgLen)
	if err != nil {
		return err
	}
	s.pool.push(&randBatch{m: m, msgLen: msgLen, r0: r0, r1: r1})
	return nil
}

// FillRandom is the receiver half of offline precomputation: random
// choice bits, matrix expansion, and storage of the chosen-side pads.
func (r *Receiver) FillRandom(m, msgLen int) error {
	if m == 0 {
		return nil
	}
	sp := obs.Begin("ot", "ot.pool.fill.recv")
	defer sp.EndN(int64(m))
	bits := randomBits(m)
	rc, err := r.randomPads(bits, msgLen)
	if err != nil {
		return err
	}
	r.pool.push(&randBatch{m: m, msgLen: msgLen, bits: bits, rc: rc})
	return nil
}

// sendRandom serves m random OTs with msgLen-byte pads from the pool
// head when it matches — receive the derandomization bits and swap the
// pads of every instance whose bit is set — or else from a direct
// extension batch.
func (s *Sender) sendRandom(m, msgLen int) ([]byte, []byte, error) {
	b, sp := s.pool.open(m, msgLen, kExtSend, kDerandSend)
	defer sp.EndN(int64(m))
	if b == nil {
		return s.randomPads(m, msgLen)
	}
	dMsg, err := transport.RecvSized(s.conn, "ot: derandomization corrections", (m+7)/8)
	if err != nil {
		return nil, nil, err
	}
	for j := 0; j < m; j++ {
		if dMsg[j/8]>>(j%8)&1 == 1 {
			a, c := b.r0[j*msgLen:(j+1)*msgLen], b.r1[j*msgLen:(j+1)*msgLen]
			for k := range a {
				a[k], c[k] = c[k], a[k]
			}
		}
	}
	return b.r0, b.r1, nil
}

// receiveRandom is the receiver half of sendRandom: it sends the
// derandomization bits dⱼ = cⱼ ⊕ bⱼ that turn the pooled choices bⱼ into
// the wanted ones and returns the stored pads, or runs a direct batch.
func (r *Receiver) receiveRandom(choices []bool, msgLen int) ([]byte, error) {
	b, sp := r.pool.open(len(choices), msgLen, kExtRecv, kDerandRecv)
	defer sp.EndN(int64(len(choices)))
	if b == nil {
		return r.randomPads(choices, msgLen)
	}
	if err := r.conn.Send(flipBits(choices, b.bits)); err != nil {
		return nil, err
	}
	return b.rc, nil
}

// flipBits packs the derandomization bits d_j = c_j ⊕ b_j of the wanted
// choices c against a pooled batch's b.
func flipBits(c, b []bool) []byte {
	d := make([]byte, (len(c)+7)/8)
	for j := range c {
		if c[j] != b[j] {
			d[j/8] |= 1 << (j % 8)
		}
	}
	return d
}
