package ot

import (
	"secyan/internal/obs"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// This file is the Δ-OT batch: the extension's correlation itself, with
// no hash. After a batch the sender holds rows q_j and the receiver
//
//	t_j = q_j ⊕ c_j·Δ
//
// for its choice bits c_j, where Δ (Sender.Delta) is the sender's
// extension Δ, one for the session's direction, with lsb(Δ) = 1
// (senderChoices). A garbler that takes Δ as its free-XOR offset and q_j
// as the zero label of input j has handed the evaluator the label of c_j
// (gc): a direct batch is the correction message, ExtOfflineCost(m), and
// nothing else.
//
// A pooled batch (FillDelta) is run on random choices b_j. Online the
// receiver sends d_j = c_j ⊕ b_j, RandomOnlineCost(m), and the zero
// label of input j becomes q_j ⊕ d_j·Δ: its stored t_j is then the label
// of c_j. The sender keeps the flips d_j for whoever garbles over the
// rows (a garble over q_j flips the inputs whose d_j is set).
//
// Every Δ-OT batch of a direction, zero-sized and pooled ones included,
// has a serial, its index among the direction's Δ-OT batches, which both
// ends count in lockstep. One batch keys one circuit, so the serial
// separates the hash tweaks of the circuits garbled under one Δ.

// deltaKind is the message length a Δ-OT batch is pooled under: it has
// rows, not pads.
const deltaKind = 0

// keptRows is the largest direct Δ-OT batch whose receiver writes its
// rows into the batch scratch its T already lives in (1 MiB of rows),
// and whose sender into a grow-only scratch of its own, for the next
// batch to reuse: small circuits follow one another, while
// a large batch's rows are garbage once its circuit is evaluated and are
// not kept alive for the session.
const keptRows = 1 << 16

// DeltaBatch is one batch of Δ-OTs as its sender holds it.
type DeltaBatch struct {
	// Q holds the rows q_j, one per instance. A direct batch of up to
	// keptRows rows holds them in the sender's scratch, valid until its
	// next direct batch.
	Q []prf.Block
	// Flips packs d_j (bit j at byte j/8, bit j%8) once a pooled batch is
	// open; it is nil for a direct batch and while the batch waits in the
	// pool.
	Flips []byte
	// Serial is the batch's index among its direction's Δ-OT batches.
	Serial uint64
	// Garbled is what a garbler left on a pooled batch to serve when the
	// batch opens (gc's material garbled over Q); ot never reads it.
	Garbled any
}

// Delta returns the extension's Δ, the correlation q_j ⊕ t_j = c_j·Δ of
// every OT of the direction, with lsb(Δ) = 1.
func (s *Sender) Delta() prf.Block { return prf.Block(s.s) }

// deltaRows runs a Δ-OT batch of m > 0 instances as the sender, into
// the sender's row scratch when kept, else into rows of its own.
func (s *Sender) deltaRows(m int, kept bool) (*DeltaBatch, error) {
	b := &DeltaBatch{Serial: s.serial}
	if kept {
		if cap(s.q) < m {
			s.q = make([]prf.Block, m)
		}
		b.Q = s.q[:m]
	} else {
		b.Q = make([]prf.Block, m)
	}
	if err := s.expand(m, &rowSink{q: b.Q}); err != nil {
		return nil, err
	}
	s.serial++
	return b, nil
}

// deltaRows is the receiver half of Sender.deltaRows: it returns the rows
// t_j, flat m×16, in the batch's scratch (valid until the next batch)
// when kept, else allocated.
func (r *Receiver) deltaRows(choices []bool, kept bool) ([]byte, error) {
	extra := 0
	if kept {
		extra = 16 * len(choices)
	}
	t, rows, rowBytes, err := r.expand(choices, extra)
	if err != nil {
		return nil, err
	}
	if !kept {
		rows = make([]byte, 16*len(choices))
	}
	eachBlock(len(choices), func(base, n int) {
		blockRows(rows[16*base:16*(base+n)], t, kappa, rowBytes, base)
	})
	r.serial++
	return rows, nil
}

// FillDelta runs the offline half of a Δ-OT batch of m instances — the
// peer draws random choices b_j — and pushes it onto the pool. It returns
// the batch, so that a circuit can be garbled over its rows before it is
// drained; nothing in it changes until BeginDelta opens it. The peer runs
// Receiver.FillDelta with the same m; like FillRandom it is half a round.
func (s *Sender) FillDelta(m int) (*DeltaBatch, error) {
	if m == 0 {
		return nil, nil
	}
	sp := obs.Begin("ot", "ot.pool.fill.send")
	defer sp.EndN(int64(m))
	b, err := s.deltaRows(m, false)
	if err != nil {
		return nil, err
	}
	s.pool.push(&randBatch{m: m, msgLen: deltaKind, delta: b})
	return b, nil
}

// FillDelta is the receiver half of Sender.FillDelta.
func (r *Receiver) FillDelta(m int) error {
	if m == 0 {
		return nil
	}
	sp := obs.Begin("ot", "ot.pool.fill.recv")
	defer sp.EndN(int64(m))
	bits, serial := randomBits(m), r.serial
	t, err := r.deltaRows(bits, false)
	if err != nil {
		return err
	}
	r.pool.push(&randBatch{m: m, msgLen: deltaKind, bits: bits, rc: t, serial: serial})
	return nil
}

// BeginDelta opens a batch of m Δ-OTs: the pool head when it is a Δ-OT
// batch of m instances, whose flips it receives (⌈m/8⌉ bytes), or else a
// direct batch, whose correction message it receives. Nothing is sent.
// A batch of zero OTs exchanges nothing and leaves the pool alone, but
// takes a serial. The peer runs Receiver.ReceiveDelta with m choices.
func (s *Sender) BeginDelta(m int) (*DeltaBatch, error) {
	if m == 0 {
		s.serial++
		return &DeltaBatch{Serial: s.serial - 1}, nil
	}
	pb, sp := s.pool.open(m, deltaKind, kExtSend, kDerandSend)
	defer sp.EndN(int64(m))
	if pb == nil {
		return s.deltaRows(m, m <= keptRows)
	}
	flips, err := transport.RecvSized(s.conn, "ot: derandomization corrections", (m+7)/8)
	if err != nil {
		return nil, err
	}
	pb.delta.Flips = flips
	return pb.delta, nil
}

// ReceiveDelta is the receiver half of BeginDelta: it sends the
// correction message for the choices, or their flips against the pooled
// batch's, and returns the batch's serial and its rows, flat m×16: t_j =
// x_j ⊕ c_j·Δ for x_j = q_j ⊕ d_j·Δ (d_j = 0 in a direct batch, whose
// rows, up to keptRows of them, live in the receiver's batch scratch,
// valid until its next batch).
func (r *Receiver) ReceiveDelta(choices []bool) ([]byte, uint64, error) {
	m, serial := len(choices), r.serial
	if m == 0 {
		r.serial++
		return nil, serial, nil
	}
	b, sp := r.pool.open(m, deltaKind, kExtRecv, kDerandRecv)
	defer sp.EndN(int64(m))
	if b == nil {
		t, err := r.deltaRows(choices, m <= keptRows)
		return t, serial, err
	}
	if err := r.conn.Send(flipBits(choices, b.bits)); err != nil {
		return nil, 0, err
	}
	return b.rc, b.serial, nil
}
