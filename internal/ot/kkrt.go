package ot

import (
	"encoding/binary"
	"fmt"

	"secyan/internal/bitutil"
	"secyan/internal/parallel"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// This file is the 1-of-∞ OT extension of Kolesnikov, Kumaresan, Rosulek
// and Trieu (KKRT, CCS 2016), the batched OPRF under the PSI of paper
// §5.3. It is IKNP with the receiver's choice bit replaced by a
// KKRTWidth-bit code word: for instance j with input x_j and code word
// c_j = C(x_j), the receiver draws column streams t_i = G(k_i^0) and
// sends, per column i, u_i = t_i ⊕ G(k_i^1) ⊕ (column i of the codes).
// The sender, who holds s and k_i^{s_i}, recovers q_i = G(k_i^{s_i}) ⊕
// s_i·u_i, whose row j is
//
//	q_j = t_j ⊕ (c_j ∧ s),
//
// and for any y evaluates F_j(y) = H(j, q_j ⊕ (C(y) ∧ s)); the receiver's
// output is H(j, t_j) = F_j(x_j). For y ≠ x_j the argument of H differs
// from t_j by (C(x_j) ⊕ C(y)) ∧ s, which has as many unknown bits of s
// as the codes differ in, at least κ when the code's minimum distance is
// (DESIGN.md §4). H is SHA-256 over the whole row under a domain that
// carries the instance index (kkrtDomain): folding the row to 128 bits
// first would leave only ≈ κ/4 of those unknown bits in the hash input.
//
// The code is the caller's: the PSI uses a pseudorandom code
// (psi/oprf.go), so C and the minimum distance are pinned there. The
// KKRTWidth base OTs are random OTs of an established IKNP direction
// (NewKKRTSender, NewKKRTReceiver), as Reverse derives the opposite
// direction's: no public-key work, one KKRTSetupCost message.

// KKRTWidth is the code width k of the KKRT extension in bits: four AES
// blocks, so a 128-bit security level survives a pseudorandom code's
// minimum distance with a wide margin.
const KKRTWidth = 512

// KKRTCodeBytes is the byte length of one code word and of one matrix row.
const KKRTCodeBytes = KKRTWidth / 8

// kkrtDomain is the SHA-256 domain of the KKRT output hash; the low bits
// carry the extension-global instance index. The base OTs' seed hash
// (keySeed) uses domains below their batch size, so the two never meet.
const kkrtDomain = uint64(1) << 63

// KKRTSender is the OPRF-key-holding endpoint of a KKRT extension: the
// PSI sender, who evaluates F_j at every key of his bin.
type KKRTSender struct {
	conn  transport.Conn
	s     [KKRTWidth / 64]uint64 // the KKRTWidth secret choice bits of the base OTs
	seeds [KKRTWidth]prf.Seed    // k_i^{s_i}, one AES-CTR key per column
	off   uint64                 // byte offset of the next batch in every column's stream
	idx   uint64                 // extension-global instance counter, for the hash domain
}

// KKRTReceiver is the input-holding endpoint: the PSI receiver, who
// learns F_j(x_j) for her one input per instance and nothing else.
type KKRTReceiver struct {
	conn   transport.Conn
	seeds0 [KKRTWidth]prf.Seed // k_i^0, one AES-CTR key per column
	seeds1 [KKRTWidth]prf.Seed // k_i^1
	off    uint64
	idx    uint64
}

// The column keys are kept as seeds and expanded per batch (on the
// stack), unlike IKNP's κ columns, whose round keys are expanded once:
// a query runs one or two KKRT batches per orientation, and 3·KKRTWidth
// schedules held per party pair would outweigh the batches themselves.

// NewKKRTSender sets up a KKRT sender on r's connection from KKRTWidth
// direct random OTs in which r is the receiver: its uniform choice bits
// become s and the pads they select the column seeds. The peer calls
// NewKKRTReceiver on its Sender at the same protocol point. Like
// Receiver.Reverse, the batch never comes from the pool, so precomputed
// batches stay aligned; it costs KKRTSetupCost, one message from r's end
// to the peer.
func NewKKRTSender(r *Receiver) (*KKRTSender, error) {
	choices := randomBits(KKRTWidth)
	pads, err := r.randomPads(choices, prf.SeedSize)
	if err != nil {
		return nil, fmt.Errorf("ot: KKRT sender setup: %w", err)
	}
	k := &KKRTSender{conn: r.conn}
	copy(k.s[:], bitutil.FromBools(choices).Words())
	for i := range k.seeds {
		k.seeds[i] = prf.Seed(pads[i*prf.SeedSize:])
	}
	return k, nil
}

// NewKKRTReceiver is the peer's half of NewKKRTSender: both pads of each
// of the KKRTWidth random OTs become a column's seed pair.
func NewKKRTReceiver(s *Sender) (*KKRTReceiver, error) {
	r0, r1, err := s.randomPads(KKRTWidth, prf.SeedSize)
	if err != nil {
		return nil, fmt.Errorf("ot: KKRT receiver setup: %w", err)
	}
	k := &KKRTReceiver{conn: s.conn}
	for i := range k.seeds0 {
		k.seeds0[i] = prf.Seed(r0[i*prf.SeedSize:])
		k.seeds1[i] = prf.Seed(r1[i*prf.SeedSize:])
	}
	return k, nil
}

// kkrtHash writes H(idx, row) into dst (at most 32 bytes): SHA-256 over
// the whole KKRTWidth-bit row under the instance's domain.
func kkrtHash(dst []byte, idx uint64, row []byte) {
	prf.HashInto(dst, kkrtDomain|idx, row)
}

// Receive runs one batch of len(codes)/KKRTCodeBytes instances on the
// code words codes (flat, one KKRTCodeBytes word per instance): it sends
// the correction matrix, KKRTWidth columns of ⌈m/8⌉ bytes, and returns
// F_j(x_j) of every instance j, outLen (≤ 32) bytes each, flat. The peer
// runs KKRTSender.Send with the same instance count. A column is cut to
// whole bytes, not to the whole words IKNP sends: the transposes pad the
// columns to 64-bit words locally, with all-zero code words on this side
// and zero bits on the sender's, and those instances are discarded.
func (r *KKRTReceiver) Receive(codes []byte, outLen int) ([]byte, error) {
	m := len(codes) / KKRTCodeBytes
	if m == 0 {
		return nil, nil
	}
	sp := kKKRTRecv.Begin()
	defer sp.EndN(int64(m))
	mPad := int(padTo64(m))
	colBytes := (m + 7) / 8
	cm := bitutil.NewMatrix(mPad, KKRTWidth)
	for j := 0; j < m; j++ {
		cm.SetRowBytes(j, codes[j*KKRTCodeBytes:(j+1)*KKRTCodeBytes])
	}
	ct := cm.Transpose()
	tm := bitutil.NewMatrix(KKRTWidth, mPad)
	uMsg := make([]byte, KKRTWidth*colBytes)
	off := r.off
	parallel.For(KKRTWidth, 8, func(lo, hi int) {
		t := make([]byte, colBytes)
		c := make([]byte, mPad/8)
		for i := lo; i < hi; i++ {
			u := uMsg[i*colBytes : (i+1)*colBytes]
			g0, g1 := prf.NewCTR(r.seeds0[i]), prf.NewCTR(r.seeds1[i])
			g0.KeyStream(t, off)
			g1.KeyStream(u, off)
			tm.SetRowBytes(i, t)
			ct.RowBytesInto(c, i)
			prf.XORBytes(u, u, t)
			prf.XORBytes(u, u, c[:colBytes])
		}
	})
	r.off += uint64(colBytes)
	if err := r.conn.Send(uMsg); err != nil {
		return nil, err
	}
	rows := tm.Transpose()
	out := make([]byte, m*outLen)
	idx := r.idx
	parallel.For(m, 32, func(lo, hi int) {
		var row [KKRTCodeBytes]byte
		for j := lo; j < hi; j++ {
			rows.RowBytesInto(row[:], j)
			kkrtHash(out[j*outLen:(j+1)*outLen], idx+uint64(j), row[:])
		}
	})
	r.idx += uint64(m)
	return out, nil
}

// KKRTKeys are the sender's output of one batch: the rows q_j and s,
// which evaluate F_j at any code word.
type KKRTKeys struct {
	q   *bitutil.Matrix // row j is q_j
	s   *[KKRTWidth / 64]uint64
	idx uint64 // instance index of row 0
}

// Send receives the correction matrix of a batch of m instances and
// returns the batch's keys.
func (k *KKRTSender) Send(m int) (*KKRTKeys, error) {
	if m == 0 {
		return &KKRTKeys{s: &k.s, idx: k.idx}, nil
	}
	sp := kKKRTSend.Begin()
	defer sp.EndN(int64(m))
	colBytes := (m + 7) / 8
	uMsg, err := transport.RecvSized(k.conn, "ot: KKRT matrix", KKRTWidth*colBytes)
	if err != nil {
		return nil, err
	}
	qm := bitutil.NewMatrix(KKRTWidth, int(padTo64(m)))
	off := k.off
	parallel.For(KKRTWidth, 8, func(lo, hi int) {
		q := make([]byte, colBytes)
		for i := lo; i < hi; i++ {
			g := prf.NewCTR(k.seeds[i])
			g.KeyStream(q, off)
			if k.s[i/64]>>(i%64)&1 == 1 {
				prf.XORBytes(q, q, uMsg[i*colBytes:(i+1)*colBytes])
			}
			qm.SetRowBytes(i, q)
		}
	})
	k.off += uint64(colBytes)
	keys := &KKRTKeys{q: qm.Transpose(), s: &k.s, idx: k.idx}
	k.idx += uint64(m)
	return keys, nil
}

// Eval writes F_j(y) for the code word c = C(y) into dst (at most 32
// bytes): H(j, q_j ⊕ (c ∧ s)). It equals the receiver's output of
// instance j when y is her input. Eval allocates nothing and may run
// concurrently.
func (ks *KKRTKeys) Eval(dst []byte, j int, c *[KKRTCodeBytes]byte) {
	var row [KKRTCodeBytes]byte
	q := ks.q.Row(j)
	for w := range q {
		binary.LittleEndian.PutUint64(row[8*w:], q[w]^binary.LittleEndian.Uint64(c[8*w:])&ks.s[w])
	}
	kkrtHash(dst, ks.idx+uint64(j), row[:])
}
