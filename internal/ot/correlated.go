package ot

import (
	"fmt"

	"secyan/internal/prf"
	"secyan/internal/transport"
)

// This file is the correlated OT (C-OT) of Asharov–Lindell–Schneider–
// Zohner 2013, the batch of the OEP switches (two options differing by a
// value the helper knows) and of Gilboa's share products (r, r + a·2^k).
// In each, the sender does not need to choose both messages — only how
// they differ. (The garbled-circuit input labels, a free-XOR pair L,
// L ⊕ Δ, need no correction at all: they are the Δ-OT rows, delta.go.)
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

// SendCorrelated runs a batch of m correlated OTs: the receiver learns
// f(j, x0ⱼ) where it chose 1 and x0ⱼ where it chose 0. It returns x0,
// flat m×msgLen. The reply, the correction f(j, x0ⱼ) ⊕ r¹ⱼ of every
// instance, is built in place over r¹.
func (s *Sender) SendCorrelated(m, msgLen int, f Correlation) ([]byte, error) {
	if m == 0 {
		return nil, nil
	}
	x0, r1, err := s.sendRandom(m, msgLen)
	if err != nil {
		return nil, err
	}
	x1 := make([]byte, msgLen)
	for j := 0; j < m; j++ {
		f(j, x0[j*msgLen:(j+1)*msgLen], x1)
		y := r1[j*msgLen : (j+1)*msgLen]
		prf.XORBytes(y, y, x1)
	}
	return x0, s.conn.Send(r1)
}

// Send performs len(pairs) chosen-message OTs as sender; pairs[j][c] is
// delivered iff the receiver chose c. All messages must have equal
// length. It is a correlated batch under x1 = x0 ⊕ m0 ⊕ m1 whose reply
// carries the words wⱼ = m0ⱼ ⊕ x0ⱼ after the corrections, so it costs
// CorrelatedCost plus a word per OT direct and CorrelatedOnlineCost plus
// a word per OT pooled.
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
	x0, r1, err := s.sendRandom(m, msgLen)
	if err != nil {
		return err
	}
	msg := make([]byte, 2*m*msgLen)
	ys, ws := msg[:m*msgLen], msg[m*msgLen:]
	for j, p := range pairs {
		copy(ws[j*msgLen:], p[0])
		copy(ys[j*msgLen:], p[1])
	}
	prf.XORBytes(ws, ws, x0) // w = m0 ⊕ x0
	prf.XORBytes(ys, ys, ws) // x1 = x0 ⊕ m0 ⊕ m1 = w ⊕ m1
	prf.XORBytes(ys, ys, r1) // y = x1 ⊕ r¹
	return s.conn.Send(msg)
}

// openCorrelated applies the sender's corrections, m·msgLen bytes, to the
// chosen pads and returns the chosen message of every instance, flat:
// x1ⱼ where choice j is set, x0ⱼ elsewhere. It zeroes the corrections of
// the instances that chose 0 in place.
func openCorrelated(pads, corr []byte, choices []bool, msgLen int) []byte {
	for j, c := range choices {
		if !c {
			clear(corr[j*msgLen : (j+1)*msgLen])
		}
	}
	prf.XORBytes(pads, pads, corr)
	return pads
}

// ReceiveCorrelated runs a whole batch as the receiver of the peer's
// SendCorrelated and returns, flat, x1ⱼ where choice j is set and x0ⱼ
// elsewhere. A direct batch hashes its pads straight into the received
// corrections, so the output is the reply's own buffer.
func (r *Receiver) ReceiveCorrelated(choices []bool, msgLen int) ([]byte, error) {
	m := len(choices)
	if m == 0 {
		return nil, nil
	}
	if msgLen <= 0 {
		return nil, fmt.Errorf("ot: correlated-OT message length %d", msgLen)
	}
	b, sp := r.pool.open(m, msgLen, kExtRecv, kDerandRecv)
	defer sp.EndN(int64(m))
	if b != nil {
		if err := r.conn.Send(flipBits(choices, b.bits)); err != nil {
			return nil, err
		}
		corr, err := recvCorrections(r.conn, m, msgLen)
		if err != nil {
			return nil, err
		}
		return openCorrelated(b.rc, corr, choices, msgLen), nil
	}
	t, _, rowBytes, err := r.expand(choices, 0)
	if err != nil {
		return nil, err
	}
	idx := r.idx
	r.idx += padTo64(m)
	corr, err := recvCorrections(r.conn, m, msgLen)
	if err != nil {
		return nil, err
	}
	w := r.Word()
	eachBlock(m, func(base, n int) {
		var rows [padBatch]prf.Block
		blockRows(prf.BlockBytes(rows[:]), t, kappa, rowBytes, base)
		openPads(corr, &rows, n, base, w, idx, msgLen, choices)
	})
	return corr, nil
}

// recvCorrections receives a correlated batch's m corrections.
func recvCorrections(c transport.Conn, m, msgLen int) ([]byte, error) {
	return transport.RecvSized(c, "ot: correlated-OT corrections", m*msgLen)
}

// openPads is hashPads for a receiver that holds the sender's
// corrections in dst: instance base+k's pad replaces its correction
// where its choice is 0 and is XORed into it where it is 1.
func openPads(dst []byte, rows *[padBatch]prf.Block, n, base int, w prf.Word, idx uint64, msgLen int, choices []bool) {
	var out [padBatch]prf.Block
	var wide []byte // a pad wider than a block, derived per instance
	if msgLen <= 16 {
		w.HashBlocks(out[:n], rows[:n], otTweak(idx+uint64(base)), 1)
	} else {
		wide = make([]byte, msgLen)
	}
	for k := 0; k < n; k++ {
		pad, y := wide, dst[(base+k)*msgLen:(base+k+1)*msgLen]
		if wide == nil {
			pad = out[k][:msgLen]
		} else {
			derivePad(wide, w, idx+uint64(base+k), rows[k])
		}
		if choices[base+k] {
			prf.XORBytes(y, y, pad)
		} else {
			copy(y, pad)
		}
	}
}

// Receive performs len(choices) chosen-message OTs, returning the chosen
// message of each pair sent by the peer's matching Send call. All
// messages have msgLen bytes and share one backing array.
func (r *Receiver) Receive(choices []bool, msgLen int) ([][]byte, error) {
	m := len(choices)
	if m == 0 {
		return nil, nil
	}
	pads, err := r.receiveRandom(choices, msgLen)
	if err != nil {
		return nil, err
	}
	msg, err := transport.RecvSized(r.conn, "ot: extension ciphertexts", 2*m*msgLen)
	if err != nil {
		return nil, err
	}
	flat := openCorrelated(pads, msg[:m*msgLen], choices, msgLen)
	prf.XORBytes(flat, flat, msg[m*msgLen:])
	out := make([][]byte, m)
	for j := range out {
		out[j] = flat[j*msgLen : (j+1)*msgLen : (j+1)*msgLen]
	}
	return out, nil
}
