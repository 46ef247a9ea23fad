package ot

import (
	"encoding/binary"
	"fmt"

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
// (DESIGN.md §5). H is SHA-256 over the whole row under a domain that
// carries the instance index (kkrtDomain): folding the row to 128 bits
// first would leave only ≈ κ/4 of those unknown bits in the hash input.
//
// A batch runs on the extension's chunk kernel (softspoken.go) at k = 1
// — KKRTWidth chunks of one base OT, whose two seeds are its leaves — with
// columns cut to whole bytes, ⌈m/8⌉, not to the whole words of an
// extension batch; no KKRTWidth×m matrix is built. KKRT's own are the
// choice input (the code words' columns), the per-batch key expansion,
// the rows and the hash.
//
// The code is the caller's: the PSI uses a pseudorandom code
// (psi/oprf.go), so C and the minimum distance are pinned there. The
// KKRTWidth base OTs are random OTs of an established extension
// direction (NewKKRTSender, NewKKRTReceiver), as Reverse derives the
// opposite direction's: no public-key work, one KKRTSetupCost message.

// KKRTWidth is the code width k of the KKRT extension in bits: four AES
// blocks, so a 128-bit security level survives a pseudorandom code's
// minimum distance with a wide margin.
const KKRTWidth = 512

// KKRTCodeBytes is the byte length of one code word and of one matrix row.
const KKRTCodeBytes = KKRTWidth / 8

// kkrtDomain is the SHA-256 domain of the KKRT output hash; the low bits
// carry the stream's instance index, and the stream word follows the
// row (prf.Word.HashInto). The base OTs' seed hash (keySeed) uses
// domains below their batch size, so the two never meet.
const kkrtDomain = uint64(1) << 63

// KKRTSender is the OPRF-key-holding endpoint of a KKRT extension: the
// PSI sender, who evaluates F_j at every key of his bin.
type KKRTSender struct {
	conn   transport.Conn
	s      [KKRTCodeBytes]byte // the KKRTWidth secret choice bits of the base OTs, packed
	seeds  []prf.Seed          // k_i^{s_i}, one AES-CTR key per column; read-only after setup
	stream uint32              // the stream this end serves: its keystream window and hash word
	off    uint64              // byte offset of the next batch in every column's stream, inside the window
	idx    uint64              // the stream's instance counter, for the hash domain
}

// KKRTReceiver is the input-holding endpoint: the PSI receiver, who
// learns F_j(x_j) for her one input per instance and nothing else.
type KKRTReceiver struct {
	conn   transport.Conn
	leaves []prf.Seed // column i's seeds as its chunk's leaves: leaf y is k_i^{1−y}, at 2i + y; read-only after setup
	stream uint32
	off    uint64
	idx    uint64
	t      []byte // the last batch's T, column-major; grow-only
}

// Stream returns an end of k's extension for stream id on conn, as
// Sender.Stream does: k's column keys and s, its own counters and
// scratch, the keystream window of id and the hash word id. The peer
// calls KKRTReceiver.Stream with the same id.
func (k *KKRTSender) Stream(conn transport.Conn, id uint32) *KKRTSender {
	return &KKRTSender{conn: conn, s: k.s, seeds: k.seeds, stream: id, off: windowStart(id)}
}

// Stream is KKRTSender.Stream's peer.
func (r *KKRTReceiver) Stream(conn transport.Conn, id uint32) *KKRTReceiver {
	return &KKRTReceiver{conn: conn, leaves: r.leaves, stream: id, off: windowStart(id)}
}

// The column keys are kept as seeds, and each batch expands them in the
// workers, on their stacks, four schedules at a time (prf.NewCTRs) for
// the eight keys of one lane-kernel call — four receiver columns' pairs
// or eight sender columns — as the extension's leaves are: a
// query runs one or two KKRT batches per orientation, and 3·KKRTWidth
// schedules held per party pair (288 KiB) would outweigh the batches
// themselves.

// NewKKRTSender sets up a KKRT sender on r's connection from KKRTWidth
// direct random OTs in which r is the receiver: its uniform choice bits
// become s and the pads they select the column seeds. The peer calls
// NewKKRTReceiver on its Sender at the same protocol point. Like
// Receiver.Reverse, the batch never comes from the pool, so precomputed
// batches stay aligned; it costs KKRTSetupCost, one message from r's end
// to the peer. The new extension serves r's stream.
func NewKKRTSender(r *Receiver) (*KKRTSender, error) {
	s := randomBits(KKRTWidth)
	seeds, err := r.derivedBase(s)
	if err != nil {
		return nil, fmt.Errorf("ot: KKRT sender setup: %w", err)
	}
	k := &KKRTSender{conn: r.conn, seeds: seeds, stream: r.stream, off: windowStart(r.stream)}
	packBits(k.s[:], s)
	return k, nil
}

// NewKKRTReceiver is the peer's half of NewKKRTSender: both pads of each
// of the KKRTWidth random OTs become a column's seed pair.
func NewKKRTReceiver(s *Sender) (*KKRTReceiver, error) {
	r0, r1, err := s.randomPads(KKRTWidth, prf.SeedSize)
	if err != nil {
		return nil, fmt.Errorf("ot: KKRT receiver setup: %w", err)
	}
	return &KKRTReceiver{conn: s.conn, leaves: kkrtLeaves(r0, r1), stream: s.stream, off: windowStart(s.stream)}, nil
}

// kkrtLeaves lays the seed pairs of the setup's random OTs, k_i^0 and
// k_i^1 at r0[i·SeedSize:] and r1[i·SeedSize:], out as the leaves of
// one-bit chunks, swapped: leaf y of column i is k_i^{1−y}, so the
// chunk's one sum is t_i = G(k_i^0).
func kkrtLeaves(r0, r1 []byte) []prf.Seed {
	leaves := make([]prf.Seed, 2*len(r0)/prf.SeedSize)
	for i := 0; i < len(leaves)/2; i++ {
		leaves[2*i], leaves[2*i+1] = prf.Seed(r1[i*prf.SeedSize:]), prf.Seed(r0[i*prf.SeedSize:])
	}
	return leaves
}

// kkrtHash writes H(idx, row) into dst (at most 32 bytes): SHA-256 over
// the whole KKRTWidth-bit row under the instance's domain and the
// stream word w.
func kkrtHash(dst []byte, w prf.Word, idx uint64, row []byte) {
	w.HashInto(dst, kkrtDomain|idx, row)
}

// Receive runs one batch of len(codes)/KKRTCodeBytes instances on the
// code words codes (flat, one KKRTCodeBytes word per instance): it sends
// the correction matrix, KKRTWidth columns of ⌈m/8⌉ bytes, and returns
// F_j(x_j) of every instance j, outLen (≤ 32) bytes each, flat. The peer
// runs KKRTSender.Send with the same instance count. The code words'
// columns are written into the grow-only T buffer as the choice input
// (blockCols), and u leaves before T's rows are hashed.
func (r *KKRTReceiver) Receive(codes []byte, outLen int) ([]byte, error) {
	m := len(codes) / KKRTCodeBytes
	if m == 0 {
		return nil, nil
	}
	colBytes := (m + 7) / 8
	if err := fits(r.off, r.stream, uint64(colBytes)); err != nil {
		return nil, err
	}
	sp := kKKRTRecv.Begin()
	defer sp.EndN(int64(m))
	t := growBytes(&r.t, KKRTWidth*colBytes)
	eachBlock(m, func(base, n int) {
		blockCols(t, codes[base*KKRTCodeBytes:(base+n)*KKRTCodeBytes], KKRTWidth, colBytes, base)
	})
	u := make([]byte, KKRTWidth*colBytes)
	expandChunks(t, u, t, colBytes, KKRTWidth, 1, colBytes, r.off, r.leaves)
	r.off += uint64(colBytes)
	if err := r.conn.Send(u); err != nil {
		return nil, err
	}
	out := make([]byte, m*outLen)
	idx := r.idx
	eachBlock(m, func(base, n int) {
		var rows [padBatch * KKRTCodeBytes]byte
		blockRows(rows[:n*KKRTCodeBytes], t, KKRTWidth, colBytes, base)
		for k := 0; k < n; k++ {
			j := base + k
			kkrtHash(out[j*outLen:(j+1)*outLen], prf.Word(r.stream), idx+uint64(j), rows[k*KKRTCodeBytes:(k+1)*KKRTCodeBytes])
		}
	})
	r.idx += uint64(m)
	return out, nil
}

// KKRTKeys are the sender's output of one batch: the rows q_j and s,
// which evaluate F_j at any code word.
type KKRTKeys struct {
	q    []byte // row j is q_j, KKRTCodeBytes at q[j·KKRTCodeBytes:]
	s    *[KKRTCodeBytes]byte
	word prf.Word // the stream word of the output hash
	idx  uint64   // instance index of row 0
}

// Send receives the correction matrix of a batch of m instances, turns
// it into Q in place and returns Q's rows as the batch's keys.
func (k *KKRTSender) Send(m int) (*KKRTKeys, error) {
	if m == 0 {
		return &KKRTKeys{s: &k.s, word: prf.Word(k.stream), idx: k.idx}, nil
	}
	colBytes := (m + 7) / 8
	if err := fits(k.off, k.stream, uint64(colBytes)); err != nil {
		return nil, err
	}
	sp := kKKRTSend.Begin()
	defer sp.EndN(int64(m))
	q, err := transport.RecvSized(k.conn, "ot: KKRT matrix", KKRTWidth*colBytes)
	if err != nil {
		return nil, err
	}
	k.columns(q, colBytes)
	k.off += uint64(colBytes)
	keys := &KKRTKeys{q: make([]byte, m*KKRTCodeBytes), s: &k.s, word: prf.Word(k.stream), idx: k.idx}
	eachBlock(m, func(base, n int) {
		blockRows(keys.q[base*KKRTCodeBytes:(base+n)*KKRTCodeBytes], q, KKRTWidth, colBytes, base)
	})
	k.idx += uint64(m)
	return keys, nil
}

// columns turns the correction matrix q, KKRTWidth columns of colBytes,
// into Q in place: q_i = G(k_i^{s_i}) ⊕ s_i·u_i. On the lane kernel a
// call runs eight columns' keys, expanded four at a time in the worker.
func (k *KKRTSender) columns(q []byte, colBytes int) {
	if !leafKernel {
		k.columnsRef(q, colBytes)
		return
	}
	parallel.For(KKRTWidth/8, 1, func(lo, hi int) {
		var keys [8]prf.CTR
		var g laneScratch
		for gi := lo; gi < hi; gi++ {
			prf.NewCTRs(keys[:], k.seeds[8*gi:8*gi+8])
			for i := 8 * gi; i < 8*gi+8; i++ {
				if k.s[i/8]>>(i%8)&1 == 0 { // q_i = G(k_i^0): drop u_i
					clear(q[i*colBytes : (i+1)*colBytes])
				}
			}
			chunkLanes(&g, q[8*gi*colBytes:], nil, colBytes, 1, colBytes, k.off, keys[:], 1)
		}
	})
}

// columnsRef is columns one key at a time (chunkTile).
func (k *KKRTSender) columnsRef(q []byte, colBytes int) {
	parallel.For(KKRTWidth, 8, func(lo, hi int) {
		var g leafTiles
		var sum [pieceBytes]byte
		for i := lo; i < hi; i++ {
			keys := [1]prf.CTR{prf.NewCTR(k.seeds[i])}
			qi, set := q[i*colBytes:(i+1)*colBytes], k.s[i/8]>>(i%8)&1 == 1
			for c, n := 0, 0; c < colBytes; c += n {
				n = pieceLen(colBytes-c, k.off+uint64(c))
				chunkTile(sum[:], pieceBytes, &g, 1, n, k.off+uint64(c), keys[:], 1)
				if set { // q_i = G(k_i^{s_i}) ⊕ u_i
					prf.XORBytes(qi[c:c+n], qi[c:c+n], sum[:n])
				} else {
					copy(qi[c:c+n], sum[:n])
				}
			}
		}
	})
}

// Eval writes F_j(y) for the code word c = C(y) into dst (at most 32
// bytes): H(j, q_j ⊕ (c ∧ s)). It equals the receiver's output of
// instance j when y is her input. Eval allocates nothing and may run
// concurrently.
func (ks *KKRTKeys) Eval(dst []byte, j int, c *[KKRTCodeBytes]byte) {
	var row [KKRTCodeBytes]byte
	q := ks.q[j*KKRTCodeBytes : (j+1)*KKRTCodeBytes]
	le := binary.LittleEndian
	for w := 0; w < KKRTCodeBytes; w += 8 {
		le.PutUint64(row[w:], le.Uint64(q[w:])^le.Uint64(c[w:])&le.Uint64(ks.s[w:]))
	}
	kkrtHash(dst, ks.word, ks.idx+uint64(j), row[:])
}
