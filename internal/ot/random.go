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
// their random OTs direct, from randomPads.

// Pool metrics: how online batches were served (a miss is any batch
// that ran the direct protocol, whether the pool was empty or held
// mismatched material).
var (
	mPoolHits   = obs.NewCounter("secyan_ot_pool_hit_total", "Extension batches served from a precomputed random-OT pool.")
	mPoolMisses = obs.NewCounter("secyan_ot_pool_miss_total", "Extension batches that ran the direct protocol (pool empty or mismatched).")
)

// randBatch is one precomputed random-OT batch. Each endpoint stores only
// its own half; pads are flat m×msgLen arrays.
type randBatch struct {
	m      int
	msgLen int
	r0, r1 []byte // sender: the two random pads per instance
	bits   []bool // receiver: random choice bits
	rc     []byte // receiver: the pad of the chosen side, r^{bⱼ}ⱼ
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

// Ready reports whether the next batch of m OTs with msgLen-byte messages
// will be served from the pool. The peer's pool gives the same answer.
func (p *Pool) Ready(m, msgLen int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.batches) > 0 && p.batches[0].m == m && p.batches[0].msgLen == msgLen
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

// randomPads runs the input-independent half of one extension batch of m
// OTs as the sender — receive the correction message, expand, hash — and
// returns both pads of every instance, flat m×msgLen each. r1, when not
// nil, is where the second pads go (a correlated batch's reply buffer);
// otherwise they are allocated. Nothing is sent: the pads themselves are
// the sender's random-OT outputs.
//
// The expansion runs tile by tile (eachTile): a worker derives every
// chunk's columns of its tile into a κ×tileBytes scratch on its stack
// (chunkTile, from the leaf schedules expanded at setup) and hashes the
// rows q_j and q_j ⊕ s straight out of its 64×64 transpose blocks, so no
// κ×m matrix and no transpose of one is ever built. The pads and the
// wire message are the only O(m) allocations.
func (s *Sender) randomPads(m, msgLen int, r1 []byte) ([]byte, []byte, error) {
	if msgLen <= 0 {
		return nil, nil, fmt.Errorf("ot: random-OT message length %d", msgLen)
	}
	rowBytes := int(padTo64(m)) / 8
	u, err := transport.RecvSized(s.conn, "ot: extension matrix", chunks*rowBytes)
	if err != nil {
		return nil, nil, err
	}
	r0 := make([]byte, m*msgLen)
	if r1 == nil {
		r1 = make([]byte, m*msgLen)
	}
	off, idx := s.off, s.idx
	eachTile(rowBytes, func(c0, n int) {
		var q [kappa * tileBytes]byte
		var g leafTiles
		var rows [padBatch]prf.Block
		for j := 0; j < chunks; j++ {
			chunkTile(q[j*chunkBits*tileBytes:], tileBytes, &g, chunkBits, n, off+uint64(c0), s.leaves[j*(chunkLeaves-1):(j+1)*(chunkLeaves-1)], 1)
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
			k := min(padBatch, m-base)
			blockRows(prf.BlockBytes(rows[:]), q[:], kappa, tileBytes, 8*b)
			hashPads(r0, &rows, k, base, idx, msgLen)
			for j := range rows[:k] {
				prf.XORBytes(rows[j][:], rows[j][:], s.s[:])
			}
			hashPads(r1, &rows, k, base, idx, msgLen)
		}
	})
	s.off += streamAdvance(rowBytes)
	s.idx += padTo64(m)
	return r0, r1, nil
}

// randomPads is the receiver half: it sends the correction message for
// the given choice bits and returns the chosen-side pad of every
// instance, flat m×msgLen. Every chunk's choice input is the choice
// vector r, padded to whole words with zero bits, as KKRT pads its
// codes: those instances are discarded. u leaves before anything is
// hashed, so the peer's derivation overlaps this end's hashing.
func (r *Receiver) randomPads(choices []bool, msgLen int) ([]byte, error) {
	if msgLen <= 0 {
		return nil, fmt.Errorf("ot: random-OT message length %d", msgLen)
	}
	m := len(choices)
	rowBytes := int(padTo64(m)) / 8
	x := make([]byte, rowBytes)
	packBits(x, choices)
	t, u := growBytes(&r.t, kappa*rowBytes), make([]byte, chunks*rowBytes)
	expandChunks(t, u, x, 0, chunks, chunkBits, rowBytes, r.off, func(j, x int) prf.Seed { return r.leaves[j][x] })
	r.off += streamAdvance(rowBytes)
	if err := r.conn.Send(u); err != nil {
		return nil, err
	}
	rc := make([]byte, m*msgLen)
	idx := r.idx
	eachBlock(m, func(base, n int) {
		var rows [padBatch]prf.Block
		blockRows(prf.BlockBytes(rows[:]), t, kappa, rowBytes, base)
		hashPads(rc, &rows, n, base, idx, msgLen)
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
	r0, r1, err := s.randomPads(m, msgLen, nil)
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

// sendRandom serves m random OTs from the pool batch b — receive the
// derandomization bits and swap the pads of every instance whose bit is
// set — or, when b is nil, from a direct extension batch whose second
// pads go to r1 (allocated when nil).
func (s *Sender) sendRandom(b *randBatch, m, msgLen int, r1 []byte) ([]byte, []byte, error) {
	if b == nil {
		return s.randomPads(m, msgLen, r1)
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
// derandomization bits dⱼ = cⱼ ⊕ bⱼ that turn the pooled choices of b
// into the wanted ones and returns the stored pads, or runs a direct
// batch when b is nil.
func (r *Receiver) receiveRandom(b *randBatch, choices []bool, msgLen int) ([]byte, error) {
	if b == nil {
		return r.randomPads(choices, msgLen)
	}
	d := make([]byte, (len(choices)+7)/8)
	for j, c := range choices {
		if c != b.bits[j] {
			d[j/8] |= 1 << (j % 8)
		}
	}
	if err := r.conn.Send(d); err != nil {
		return nil, err
	}
	return b.rc, nil
}
