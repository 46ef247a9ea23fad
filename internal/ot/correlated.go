package ot

import (
	"fmt"
	"slices"

	"secyan/internal/prf"
	"secyan/internal/transport"
)

// This file is the correlated OT (C-OT) of Asharov–Lindell–Schneider–
// Zohner 2013, the batch every consumer in this repository runs: the
// garbled-circuit input labels (a free-XOR pair L, L ⊕ Δ), the OEP
// switches (two options differing by a value the helper knows) and
// Gilboa's share products (r, r + a·2^k). In each, the sender does not
// need to choose both messages — only how they differ.
//
// The OT itself defines the first message. A batch is a random OT with the
// receiver's choices (random.go), direct or derandomized from the pool:
// the sender ends up with pads (r⁰ⱼ, r¹ⱼ) and the receiver with r^{cⱼ}ⱼ.
// Then x0ⱼ := r⁰ⱼ — H(q_j) on the direct path, the pooled pad the
// receiver's correction bit points at otherwise — and the sender, given a
// per-instance correlation f, replies with one correction
//
//	yⱼ = f(j, x0ⱼ) ⊕ r¹ⱼ
//
// from which a receiver with cⱼ = 1 recovers x1ⱼ = yⱼ ⊕ r^{cⱼ}ⱼ and one
// with cⱼ = 0 keeps x0ⱼ = r^{cⱼ}ⱼ. A direct batch is CorrelatedCost
// bytes, half the ciphertext of a chosen-message one; a pooled batch is
// CorrelatedOnlineCost online.
//
// Chosen-message Send/Receive are the same batch plus a second word per
// instance, wⱼ = m0ⱼ ⊕ x0ⱼ, in the same message, under the correlation
// x1 = x0 ⊕ m0 ⊕ m1: the receiver outputs x_{cⱼ} ⊕ wⱼ = m_{cⱼ}.

// Correlation defines the second message of OT instance j from its first:
// it writes x1 = f(x0), len(x0) bytes, into x1, every byte of it. It is
// called once per instance, in ascending j, so it may carry state from
// one instance to the next.
type Correlation func(j int, x0, x1 []byte)

// SendBatch is the sender's half of one correlated-OT batch, open between
// the receiver's message (the matrix or the derandomization bits, already
// received) and the sender's corrections (not yet sent): the caller may
// use X0 — to garble with, say — before it builds the reply.
type SendBatch struct {
	// X0 holds the first message of every instance, flat m×msgLen. The OT
	// defines it; it is uniformly random to the sender and hidden from a
	// receiver that chose 1.
	X0 []byte
	// Pooled reports that the batch derandomized a pooled one. The peer's
	// RecvBatch agrees: the pools are filled and drained in lockstep.
	Pooled bool
	// pad is r¹ⱼ, flat: what a receiver choosing 1 holds. A direct batch
	// hashes it into the reply buffer BeginCorrelated was given (or one
	// it allocated), a pooled one keeps the pool's.
	pad       []byte
	m, msgLen int
}

// BeginCorrelated opens a batch of m correlated OTs with msgLen-byte
// messages: it takes the matching pool batch if there is one, receives
// the peer's opening message and derives both pads of every instance.
// reply, when not nil, is the m·msgLen bytes the corrections will be
// sent from: a direct batch hashes r¹ straight into it, so Corrections
// fills it in place (a pooled batch ignores it). The peer runs
// Receiver.BeginCorrelated with m choices. A batch of zero OTs exchanges
// nothing and leaves the pool alone.
func (s *Sender) BeginCorrelated(m, msgLen int, reply []byte) (*SendBatch, error) {
	if m == 0 {
		return &SendBatch{msgLen: msgLen}, nil
	}
	b := s.pool.take(m, msgLen)
	k := kExtSend
	if b != nil {
		k = kDerandSend
	}
	sp := k.Begin()
	defer sp.EndN(int64(m))
	r0, r1, err := s.sendRandom(b, m, msgLen, reply)
	if err != nil {
		return nil, err
	}
	return &SendBatch{X0: r0, Pooled: b != nil, pad: r1, m: m, msgLen: msgLen}, nil
}

// Corrections consumes the batch and returns its m·msgLen-byte reply:
// the correction f(j, x0ⱼ) ⊕ r¹ⱼ of every instance, in order, computed
// in place over r¹ — the reply buffer of a direct batch, the pooled pads
// of a pooled one.
func (b *SendBatch) Corrections(f Correlation) []byte {
	n := b.msgLen
	x1 := make([]byte, n)
	for j := 0; j < b.m; j++ {
		f(j, b.X0[j*n:(j+1)*n], x1)
		y := b.pad[j*n : (j+1)*n]
		prf.XORBytes(y, y, x1)
	}
	return b.pad
}

// AppendChosen appends the reply of a chosen-message batch to dst: the
// corrections under the correlation x1 = x0 ⊕ m0 ⊕ m1, then the words
// wⱼ = m0ⱼ ⊕ x0ⱼ, 2·m·msgLen bytes in all. pair returns instance j's two
// messages, msgLen bytes each, read before the next call.
func (b *SendBatch) AppendChosen(dst []byte, pair func(j int) (m0, m1 []byte)) []byte {
	n, m := b.msgLen, b.m
	base := len(dst)
	dst = slices.Grow(dst, 2*m*n)[:base+2*m*n]
	ys, ws := dst[base:base+m*n], dst[base+m*n:]
	for j := 0; j < m; j++ {
		m0, m1 := pair(j)
		copy(ws[j*n:(j+1)*n], m0)
		copy(ys[j*n:(j+1)*n], m1)
	}
	prf.XORBytes(ws, ws, b.X0)  // w = m0 ⊕ x0
	prf.XORBytes(ys, ys, ws)    // x1 = x0 ⊕ m0 ⊕ m1 = w ⊕ m1
	prf.XORBytes(ys, ys, b.pad) // y = x1 ⊕ r¹
	return dst
}

// SendCorrelated runs a whole batch of m correlated OTs: the receiver
// learns f(j, x0ⱼ) where it chose 1 and x0ⱼ where it chose 0. It returns
// X0, flat m×msgLen.
func (s *Sender) SendCorrelated(m, msgLen int, f Correlation) ([]byte, error) {
	b, err := s.BeginCorrelated(m, msgLen, nil)
	if err != nil || m == 0 {
		return nil, err
	}
	return b.X0, s.conn.Send(b.Corrections(f))
}

// Send performs len(pairs) chosen-message OTs as sender; pairs[j][c] is
// delivered iff the receiver chose c. All messages must have equal
// length. It is a correlated batch whose reply carries the second word
// (AppendChosen), so it costs CorrelatedCost plus a word per OT direct
// and ExtOnlineCost pooled.
func (s *Sender) Send(pairs [][2][]byte) error {
	m := len(pairs)
	if m == 0 {
		return nil
	}
	msgLen := len(pairs[0][0])
	for _, p := range pairs {
		if len(p[0]) != msgLen || len(p[1]) != msgLen {
			return fmt.Errorf("ot: all messages must have length %d", msgLen)
		}
	}
	b, err := s.BeginCorrelated(m, msgLen, nil)
	if err != nil {
		return err
	}
	return s.conn.Send(b.AppendChosen(make([]byte, 0, 2*m*msgLen),
		func(j int) ([]byte, []byte) { return pairs[j][0], pairs[j][1] }))
}

// RecvBatch is the receiver's half of one correlated-OT batch, open
// between its opening message (sent) and the sender's reply (not yet
// received).
type RecvBatch struct {
	// Pooled reports that the batch derandomized a pooled one, exactly
	// when the peer's SendBatch does.
	Pooled  bool
	choices []bool
	pads    []byte // r^{cⱼ}ⱼ, flat m×msgLen
	msgLen  int
}

// BeginCorrelated opens a batch of len(choices) correlated OTs as the
// receiver: it sends the correction matrix for the choices, or their
// derandomization bits when the pool head matches, and derives the pad
// of the chosen side of every instance.
func (r *Receiver) BeginCorrelated(choices []bool, msgLen int) (*RecvBatch, error) {
	m := len(choices)
	if m == 0 {
		return &RecvBatch{msgLen: msgLen}, nil
	}
	b := r.pool.take(m, msgLen)
	k := kExtRecv
	if b != nil {
		k = kDerandRecv
	}
	sp := k.Begin()
	defer sp.EndN(int64(m))
	pads, err := r.receiveRandom(b, choices, msgLen)
	if err != nil {
		return nil, err
	}
	return &RecvBatch{Pooled: b != nil, choices: choices, pads: pads, msgLen: msgLen}, nil
}

// Open applies the sender's corrections, exactly m·msgLen bytes
// (the caller size-checks the peer's message), and returns the chosen
// message of every instance, flat: x1ⱼ where choice j is set, x0ⱼ
// elsewhere. It consumes the batch and zeroes the corrections of the
// instances that chose 0 in place.
func (b *RecvBatch) Open(corr []byte) []byte {
	n := b.msgLen
	corr = corr[:len(b.pads)]
	for j, c := range b.choices {
		if !c {
			clear(corr[j*n : (j+1)*n])
		}
	}
	prf.XORBytes(b.pads, b.pads, corr)
	return b.pads
}

// OpenChosen decodes a chosen-message reply, exactly 2·m·msgLen bytes
// (corrections, then words), into the chosen message of every instance,
// flat. It consumes the batch.
func (b *RecvBatch) OpenChosen(msg []byte) []byte {
	half := len(b.choices) * b.msgLen
	out := b.Open(msg[:half])
	prf.XORBytes(out, out, msg[half:2*half])
	return out
}

// ReceiveCorrelated runs a whole batch as the receiver of the peer's
// SendCorrelated and returns, flat, x1ⱼ where choice j is set and x0ⱼ
// elsewhere.
func (r *Receiver) ReceiveCorrelated(choices []bool, msgLen int) ([]byte, error) {
	m := len(choices)
	b, err := r.BeginCorrelated(choices, msgLen)
	if err != nil || m == 0 {
		return nil, err
	}
	corr, err := transport.RecvSized(r.conn, "ot: correlated-OT corrections", m*msgLen)
	if err != nil {
		return nil, err
	}
	return b.Open(corr), nil
}

// Receive performs len(choices) chosen-message OTs, returning the chosen
// message of each pair sent by the peer's matching Send call. All
// messages have msgLen bytes and share one backing array.
func (r *Receiver) Receive(choices []bool, msgLen int) ([][]byte, error) {
	m := len(choices)
	if m == 0 {
		return nil, nil
	}
	b, err := r.BeginCorrelated(choices, msgLen)
	if err != nil {
		return nil, err
	}
	msg, err := transport.RecvSized(r.conn, "ot: extension ciphertexts", 2*m*msgLen)
	if err != nil {
		return nil, err
	}
	flat := b.OpenChosen(msg)
	out := make([][]byte, m)
	for j := range out {
		out[j] = flat[j*msgLen : (j+1)*msgLen : (j+1)*msgLen]
	}
	return out, nil
}
