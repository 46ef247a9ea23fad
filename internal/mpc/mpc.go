// Package mpc holds the per-party session context shared by every 2PC
// protocol in this repository: the connection to the peer, the party's
// role, the annotation ring, local randomness, and lazily established
// OT-extension sessions in both directions, IKNP and KKRT.
//
// The convention throughout the repository follows the paper: the two
// parties are Alice (role 0, the designated receiver of query results)
// and Bob (role 1). Protocol functions take a *Party and are written so
// that both parties call the same sequence of sub-protocols in the same
// order, which keeps the lazily created OT sessions aligned.
package mpc

import (
	"context"
	"fmt"
	"log/slog"

	"secyan/internal/gc"
	"secyan/internal/obs"
	"secyan/internal/ot"
	"secyan/internal/prf"
	"secyan/internal/share"
	"secyan/internal/transport"
)

// Role identifies a party.
type Role int

const (
	// Alice is the designated receiver of query results.
	Alice Role = 0
	// Bob is the other party.
	Bob Role = 1
)

// Other returns the peer's role.
func (r Role) Other() Role { return 1 - r }

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == Alice {
		return "Alice"
	}
	return "Bob"
}

// Party is one endpoint of a 2PC session.
type Party struct {
	Role Role
	Conn transport.Conn
	Ring share.Ring
	PRG  *prf.PRG

	// Observer, when set, receives one StepTrace per plan step the
	// executor in internal/core completes on this party's side.
	Observer func(StepTrace)

	// Track, when set, is the span timeline the executor in
	// internal/core records this party's run/phase/step spans on; it
	// also binds the party's protocol goroutine so kernel spans (gc,
	// ot, psi) nest beneath the executing plan step. Tracing never
	// touches the connection, so it cannot perturb transcripts.
	Track *obs.Track

	// Tag is the query-scoped observability tag (session/query IDs)
	// events and flight records emitted on this party's behalf carry.
	// The session layer stamps the session ID at party construction and
	// the query ID at admission; it is process-local bookkeeping only
	// and never crosses the wire.
	Tag obs.QueryTag

	// sess holds state that outlives any context-scoped view of this
	// party: derived parties made by WithContext share it, so OT
	// extension set up under one context keeps serving later runs.
	sess *session
}

// session is the context-independent part of a Party. The OT sessions
// are pinned to the raw conn (not a context wrapper) so their stream
// positions stay aligned with the peer across composed runs; a
// cancelled context still unblocks them because its watcher closes the
// underlying conn. The precomputed-circuit queue lives here for the same
// reason: material staged by core.PrecomputeOpts under one context must
// be visible to the core.Run that consumes it.
type session struct {
	raw    transport.Conn
	otSend *ot.Sender   // this party as OT sender
	otRecv *ot.Receiver // this party as OT receiver

	// KKRT extensions of the PSI's OPRF, one per orientation: this party
	// as PSI sender (KKRT sender) and as PSI receiver.
	kkrtSend *ot.KKRTSender
	kkrtRecv *ot.KKRTReceiver

	// FIFO queue of ahead-of-time garbled material, consumed by
	// RunCircuit in plan order. No mutex: the protocol itself is
	// single-threaded per party, and Precompute joins its background
	// garbling goroutine before enqueueing. The evaluating side has
	// nothing to stage: evaluation needs no per-circuit preparation.
	preGarb []*gc.PreGarbled
}

// NewParty creates a session context. Ring defaults to share.Default when
// zero.
func NewParty(role Role, conn transport.Conn, ring share.Ring) *Party {
	ring = ring.OrDefault()
	return &Party{Role: role, Conn: conn, Ring: ring, PRG: prf.NewPRG(prf.RandomSeed()),
		sess: &session{raw: conn}}
}

// WithContext returns a view of p whose conn operations fail once ctx
// is cancelled (see transport.WithContext). OT-extension state is
// shared with p. The caller must invoke the returned release function
// when the context scope ends; for a background context p itself is
// returned with a no-op release.
func (p *Party) WithContext(ctx context.Context) (*Party, func()) {
	wrapped, release := transport.WithContext(ctx, p.Conn)
	if wrapped == p.Conn {
		return p, release
	}
	cp := *p
	cp.Conn = wrapped
	return &cp, release
}

// state returns the shared session, initializing it for parties built
// as struct literals rather than through NewParty.
func (p *Party) state() *session {
	if p.sess == nil {
		p.sess = &session{raw: p.Conn}
	}
	return p.sess
}

// OTSender returns this party's sending OT-extension session, creating it
// on first use. The peer must call OTReceiver at the matching point of the
// protocol. The first direction a party pair sets up runs the public-key
// base OTs; the second is derived from the first (ot.Receiver.Reverse),
// so a pair never runs a second P-256 batch.
func (p *Party) OTSender() (*ot.Sender, error) {
	st := p.state()
	if st.otSend == nil {
		var s *ot.Sender
		var err error
		if st.otRecv != nil {
			s, err = st.otRecv.Reverse()
		} else {
			s, err = ot.NewSender(st.raw)
		}
		if err != nil {
			return nil, fmt.Errorf("mpc: %v OT sender setup: %w", p.Role, err)
		}
		st.otSend = s
	}
	return st.otSend, nil
}

// OTReceiver returns this party's receiving OT-extension session, creating
// it on first use: by base OTs, or derived from the sending session when
// that exists (ot.Sender.Reverse).
func (p *Party) OTReceiver() (*ot.Receiver, error) {
	st := p.state()
	if st.otRecv == nil {
		var r *ot.Receiver
		var err error
		if st.otSend != nil {
			r, err = st.otSend.Reverse()
		} else {
			r, err = ot.NewReceiver(st.raw)
		}
		if err != nil {
			return nil, fmt.Errorf("mpc: %v OT receiver setup: %w", p.Role, err)
		}
		st.otRecv = r
	}
	return st.otRecv, nil
}

// KKRTSender returns this party's KKRT sender — the OPRF key holder of
// every PSI this party sends in — creating it on first use from
// ot.KKRTWidth random OTs of the IKNP direction in which this party is
// the OT receiver (ot.NewKKRTSender): no public-key work, and never from
// the pool. The peer must call KKRTReceiver at the matching point.
func (p *Party) KKRTSender() (*ot.KKRTSender, error) {
	st := p.state()
	if st.kkrtSend == nil {
		rcv, err := p.OTReceiver()
		if err != nil {
			return nil, err
		}
		k, err := ot.NewKKRTSender(rcv)
		if err != nil {
			return nil, fmt.Errorf("mpc: %v KKRT sender setup: %w", p.Role, err)
		}
		st.kkrtSend = k
	}
	return st.kkrtSend, nil
}

// KKRTReceiver returns this party's KKRT receiver — the OPRF input holder
// of every PSI this party receives in — creating it on first use from the
// IKNP direction in which this party is the OT sender
// (ot.NewKKRTReceiver).
func (p *Party) KKRTReceiver() (*ot.KKRTReceiver, error) {
	st := p.state()
	if st.kkrtRecv == nil {
		snd, err := p.OTSender()
		if err != nil {
			return nil, err
		}
		k, err := ot.NewKKRTReceiver(snd)
		if err != nil {
			return nil, fmt.Errorf("mpc: %v KKRT receiver setup: %w", p.Role, err)
		}
		st.kkrtRecv = k
	}
	return st.kkrtRecv, nil
}

// Circuit-queue metrics, mirroring the OT pool's fill/hit/miss triple.
// Only garbling is counted: the evaluating side has no queue to hit.
var (
	mPreCircHits   = obs.NewCounter("secyan_mpc_precircuit_hit_total", "Circuits served from the ahead-of-time garbling queue.")
	mPreCircMisses = obs.NewCounter("secyan_mpc_precircuit_miss_total", "Circuits garbled on the direct path (queue empty, shape mismatch or direct label OT).")
)

// noteCircuit bumps the hit/miss counter and mirrors the outcome into
// the structured event log under this party's query tag.
func (p *Party) noteCircuit(hit bool) {
	if hit {
		mPreCircHits.Inc()
	} else {
		mPreCircMisses.Inc()
	}
	if obs.Enabled() {
		kind := "precompute.miss"
		if hit {
			kind = "precompute.hit"
		}
		obs.Events().Emit(kind, p.Tag, slog.String("what", "circuit"))
	}
}

// EnqueuePreGarbled appends ahead-of-time garbled material for a circuit
// this party will garble. Queued entries must arrive in the order the
// protocol will run the circuits.
func (p *Party) EnqueuePreGarbled(pg *gc.PreGarbled) {
	st := p.state()
	st.preGarb = append(st.preGarb, pg)
}

// RunCircuit evaluates circuit c with the given party acting as garbler.
// myInputs are this party's input bits (garbler inputs if this party
// garbles, evaluator inputs otherwise); the returned bits are the outputs
// destined to this party.
//
// When this party garbles and the head of its precomputed queue matches
// c's shape, the queued material is consumed: it runs on its thin online
// path (private-bit corrections plus the exchange) when its label OT is
// pooled, and is dropped for a fresh garble when that batch is direct,
// because a direct batch defines the labels itself (gc.RunGarbler). The
// wire format follows the OT pools, which both parties agree on, never
// the queue, so the queue needs no cross-party agreement. A shape
// mismatch — execution has diverged from the precomputed plan — drops
// the rest of the queue and falls back to the direct path, which is
// always correct.
func (p *Party) RunCircuit(c *gc.Circuit, myInputs, myPriv []bool, garbler Role) ([]bool, error) {
	if p.Role != garbler {
		rcv, err := p.OTReceiver()
		if err != nil {
			return nil, err
		}
		return gc.RunEvaluator(p.Conn, rcv, c, myInputs)
	}
	snd, err := p.OTSender()
	if err != nil {
		return nil, err
	}
	st := p.state()
	if len(st.preGarb) > 0 {
		pg := st.preGarb[0]
		st.preGarb[0] = nil // consumed or dropped, never kept alive by the queue
		if !gc.SameShape(pg.C, c) {
			st.preGarb = nil
		} else if st.preGarb = st.preGarb[1:]; pg.Serves(snd) {
			p.noteCircuit(true)
			return pg.RunOnline(p.Conn, snd, myInputs, myPriv)
		}
	}
	p.noteCircuit(false)
	return gc.RunGarbler(p.Conn, snd, c, myInputs, myPriv)
}

// Pair returns two connected in-memory parties, for tests and in-process
// benchmarks.
func Pair(ring share.Ring) (*Party, *Party) {
	ca, cb := transport.Pair()
	return NewParty(Alice, ca, ring), NewParty(Bob, cb, ring)
}

// Run2PC runs alice's and bob's protocol halves concurrently and returns
// both results. It is the standard driver for in-process execution: the
// benchmark harness, the examples and the tests all use it.
func Run2PC[A, B any](alice *Party, bob *Party, fa func(*Party) (A, error), fb func(*Party) (B, error)) (A, B, error) {
	type bres struct {
		v   B
		err error
	}
	ch := make(chan bres, 1)
	go func() {
		v, err := fb(bob)
		if err != nil {
			// Unblock the peer: a failed party can no longer keep the
			// protocol in lockstep, so tear the connection down.
			bob.Conn.Close()
		}
		ch <- bres{v, err}
	}()
	av, aerr := fa(alice)
	if aerr != nil {
		alice.Conn.Close()
	}
	br := <-ch
	if aerr != nil {
		return av, br.v, fmt.Errorf("mpc: Alice: %w", aerr)
	}
	if br.err != nil {
		return av, br.v, fmt.Errorf("mpc: Bob: %w", br.err)
	}
	return av, br.v, nil
}

// ShareToPeer secret-shares values this party holds in plaintext: it keeps
// one share and sends the other to the peer.
func (p *Party) ShareToPeer(vs []uint64) ([]uint64, error) {
	mine := make([]uint64, len(vs))
	theirs := make([]uint64, len(vs))
	for i, v := range vs {
		mine[i], theirs[i] = p.Ring.Split(p.PRG, v)
	}
	if err := transport.SendUint64s(p.Conn, theirs); err != nil {
		return nil, err
	}
	return mine, nil
}

// RecvShares receives the n shares produced by the peer's ShareToPeer; a
// message of any other length is a *transport.SizeError.
func (p *Party) RecvShares(n int) ([]uint64, error) {
	return transport.RecvUint64s(p.Conn, "mpc: shares", n)
}

// RevealToPeer sends this party's shares so the peer can reconstruct; it
// is used only for values that are part of the query results or otherwise
// public (paper §5.1).
func (p *Party) RevealToPeer(myShares []uint64) error {
	return transport.SendUint64s(p.Conn, myShares)
}

// RecvReveal combines the peer's shares with this party's to reconstruct
// the values; a message of other than len(myShares) shares is a
// *transport.SizeError.
func (p *Party) RecvReveal(myShares []uint64) ([]uint64, error) {
	theirs, err := transport.RecvUint64s(p.Conn, "mpc: revealed shares", len(myShares))
	if err != nil {
		return nil, err
	}
	return p.Ring.CombineSlice(myShares, theirs), nil
}
