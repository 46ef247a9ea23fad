package ot

import (
	"fmt"
	"sync"

	"secyan/internal/bitutil"
	"secyan/internal/obs"
	"secyan/internal/parallel"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// This file implements Beaver-style OT precomputation on top of the IKNP
// extension. FillRandom runs the input-independent half of an extension
// batch ahead of time: the receiver draws random choice bits, both sides
// expand the matrix and derive the per-instance pads, and only the
// κ×mPad correction matrix crosses the wire. The resulting random OTs —
// the sender holds pads (r⁰ⱼ, r¹ⱼ), the receiver holds (bⱼ, r^{bⱼ}ⱼ) —
// wait in a Pool. A later Send/Receive call of matching dimensions is
// then served by derandomization (Beaver 1995): the receiver sends one
// correction bit dⱼ = cⱼ ⊕ bⱼ per instance and the sender replies with
// the usual 2m ciphertexts, masking message k with r^{k⊕dⱼ}ⱼ, so that
// the receiver's stored pad opens exactly the chosen one. The online
// round structure is unchanged (receiver speaks first, one round trip),
// costs ⌈m/8⌉ extra bytes, and uses no cryptography beyond XOR.
//
// SendRandom/ReceiveRandom expose the random OTs themselves, with the
// receiver choosing its bits: the pads are the outputs, so a direct batch
// is the matrix and nothing else, and a pooled one is the correction bits
// and nothing else — the sender swaps a pooled pad pair where the bit is
// set. The PSI's per-bin OPRF is built on them.

// Pool metrics. Fills count offline work; hits/misses classify how online
// batches were served (a miss is any batch that ran the direct protocol,
// whether the pool was empty or held mismatched material).
var (
	mPoolFillBatches = obs.NewCounter("secyan_ot_pool_fill_batches_total", "Random-OT batches precomputed into pools (FillRandom calls).")
	mPoolFillOTs     = obs.NewCounter("secyan_ot_pool_fill_total", "Random-OT instances precomputed into pools.")
	mPoolHits        = obs.NewCounter("secyan_ot_pool_hit_total", "Extension batches served from a precomputed random-OT pool.")
	mPoolMisses      = obs.NewCounter("secyan_ot_pool_miss_total", "Extension batches that ran the direct protocol (pool empty or mismatched).")
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
	mPoolFillBatches.Inc()
	mPoolFillOTs.Add(int64(b.m))
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
	p.batches = p.batches[1:]
	mPoolHits.Inc()
	return head
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
// OTs as the sender — receive the correction matrix, expand, hash — and
// returns both pads of every instance, flat m×msgLen each. Nothing is
// sent: the pads themselves are the sender's random-OT outputs.
func (s *Sender) randomPads(m, msgLen int) (r0, r1 []byte, err error) {
	if msgLen <= 0 {
		return nil, nil, fmt.Errorf("ot: random-OT message length %d", msgLen)
	}
	qt, err := s.expandColumns(m)
	if err != nil {
		return nil, nil, err
	}
	r0 = make([]byte, m*msgLen)
	r1 = make([]byte, m*msgLen)
	parallel.For(m, 32, func(lo, hi int) {
		hashRowPads(r0, 1, qt, nil, s.idx, lo, hi, msgLen)
		hashRowPads(r1, 1, qt, &s.sRow, s.idx, lo, hi, msgLen)
	})
	s.idx += padTo64(m)
	return r0, r1, nil
}

// randomPads is the receiver half: it sends the correction matrix for
// the given choice bits and returns the chosen-side pad of every
// instance, flat m×msgLen.
func (r *Receiver) randomPads(choices []bool, msgLen int) ([]byte, error) {
	if msgLen <= 0 {
		return nil, fmt.Errorf("ot: random-OT message length %d", msgLen)
	}
	m := len(choices)
	tt, err := r.expandColumns(choices)
	if err != nil {
		return nil, err
	}
	rc := make([]byte, m*msgLen)
	parallel.For(m, 32, func(lo, hi int) {
		hashRowPads(rc, 1, tt, nil, r.idx, lo, hi, msgLen)
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
	g := prf.NewPRG(prf.RandomSeed())
	bits := make([]bool, m)
	for i := range bits {
		bits[i] = g.Bool()
	}
	rc, err := r.randomPads(bits, msgLen)
	if err != nil {
		return err
	}
	r.pool.push(&randBatch{m: m, msgLen: msgLen, bits: bits, rc: rc})
	return nil
}

// SendRandom performs m random OTs as the sender: it returns both pads
// of every instance, flat m×msgLen each, and the peer's matching
// ReceiveRandom learns the pad its choice bit selects. No ciphertext
// crosses the wire — the IKNP pads are the outputs — so a direct batch
// costs the correction matrix alone (RandomCost) and the sender sends
// nothing. A matching pooled batch is served by derandomization: one
// correction bit per instance says whether the receiver's wanted choice
// differs from the pooled one, and the sender swaps that instance's
// pads.
func (s *Sender) SendRandom(m, msgLen int) (r0, r1 []byte, err error) {
	if m == 0 {
		return nil, nil, nil
	}
	defer observeExt(m)()
	sp := obs.Begin("ot", "ot.ext.random.send")
	defer sp.EndN(int64(m))
	b := s.pool.take(m, msgLen)
	if b == nil {
		return s.randomPads(m, msgLen)
	}
	d, err := s.recvCorrections(m)
	if err != nil {
		return nil, nil, err
	}
	for j := 0; j < m; j++ {
		if d.Get(j) {
			a, c := b.r0[j*msgLen:(j+1)*msgLen], b.r1[j*msgLen:(j+1)*msgLen]
			for k := range a {
				a[k], c[k] = c[k], a[k]
			}
		}
	}
	return b.r0, b.r1, nil
}

// ReceiveRandom performs len(choices) random OTs as the receiver and
// returns pad choices[j] of every instance j of the peer's SendRandom,
// flat m×msgLen.
func (r *Receiver) ReceiveRandom(choices []bool, msgLen int) ([]byte, error) {
	m := len(choices)
	if m == 0 {
		return nil, nil
	}
	defer observeExt(m)()
	sp := obs.Begin("ot", "ot.ext.random.recv")
	defer sp.EndN(int64(m))
	b := r.pool.take(m, msgLen)
	if b == nil {
		return r.randomPads(choices, msgLen)
	}
	if err := r.sendCorrections(b, choices); err != nil {
		return nil, err
	}
	return b.rc, nil
}

// sendCorrections sends the derandomization bits dⱼ = cⱼ ⊕ bⱼ that turn
// the pooled choices b into the wanted ones.
func (r *Receiver) sendCorrections(b *randBatch, choices []bool) error {
	d := bitutil.NewVector(len(choices))
	for j, c := range choices {
		d.Set(j, c != b.bits[j])
	}
	return r.conn.Send(d.Bytes())
}

// recvCorrections receives the m derandomization bits of a pooled batch.
func (s *Sender) recvCorrections(m int) (*bitutil.Vector, error) {
	dMsg, err := transport.RecvSized(s.conn, "ot: derandomization corrections", (m+7)/8)
	if err != nil {
		return nil, err
	}
	return bitutil.VectorFromBytes(dMsg, m), nil
}

// receiveDerandomized serves one Receive call from precomputed material:
// send correction bits, receive ciphertexts, unmask with the stored pads.
func (r *Receiver) receiveDerandomized(b *randBatch, choices []bool) ([][]byte, error) {
	m := len(choices)
	msgLen := b.msgLen
	sp := obs.Begin("ot", "ot.ext.derand.recv")
	defer sp.EndN(int64(m))
	if err := r.sendCorrections(b, choices); err != nil {
		return nil, err
	}
	ct, err := transport.RecvSized(r.conn, "ot: derandomized ciphertexts", 2*m*msgLen)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, m)
	outBack := make([]byte, m*msgLen)
	for j := range out {
		c := ct[2*j*msgLen : (2*j+1)*msgLen]
		if choices[j] {
			c = ct[(2*j+1)*msgLen : (2*j+2)*msgLen]
		}
		msg := outBack[j*msgLen : (j+1)*msgLen]
		prf.XORBytes(msg, c, b.rc[j*msgLen:(j+1)*msgLen])
		out[j] = msg
	}
	return out, nil
}

// sendDerandomized serves one Send call from precomputed material. The
// correction bit dⱼ swaps which stored pad masks which message, so the
// receiver's chosen-side pad always opens pairs[j][cⱼ].
func (s *Sender) sendDerandomized(b *randBatch, pairs [][2][]byte, msgLen int) error {
	m := len(pairs)
	sp := obs.Begin("ot", "ot.ext.derand.send")
	defer sp.EndN(int64(m))
	d, err := s.recvCorrections(m)
	if err != nil {
		return err
	}
	ct := make([]byte, 2*m*msgLen)
	parallel.For(m, 32, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			r0 := b.r0[j*msgLen : (j+1)*msgLen]
			r1 := b.r1[j*msgLen : (j+1)*msgLen]
			if d.Get(j) {
				r0, r1 = r1, r0
			}
			prf.XORBytes(ct[2*j*msgLen:(2*j+1)*msgLen], pairs[j][0], r0)
			prf.XORBytes(ct[(2*j+1)*msgLen:(2*j+2)*msgLen], pairs[j][1], r1)
		}
	})
	return s.conn.Send(ct)
}
