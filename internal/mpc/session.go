package mpc

// Session multiplexes independent protocol executions over one
// connection: each logical stream gets its own Party (own OT-extension
// counters, precomputed pools included, and own PRG), so N queries — or
// a background Precompute filling pools while online queries run —
// share a single authenticated transport. What they share of their
// cryptographic state is the session's OT root: the base OTs, GGM
// trees, second direction and KKRT extensions, set up once on the
// reserved stream RootStream, from which every stream derives its ends
// with no message (DESIGN.md §3). Stream pairing follows the same
// convention as query descriptions: the two endpoints open matching
// stream ids for the runs they want paired (NextParty hands out
// sequential ids for symmetric call orders; PartyOn takes an explicit id
// when concurrent heterogeneous runs need deterministic pairing).

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"secyan/internal/ot"
	"secyan/internal/share"
	"secyan/internal/transport"
)

// RootStream is the stream id a session reserves for its OT root;
// PartyOn and OpenStream refuse it. Its window is the last of every
// keystream, past every other stream's.
const RootStream = math.MaxUint32

// RootError reports that a session's OT root could not be set up. The
// root is attempted once: every stream's OT need fails with the same
// error for the rest of the session.
type RootError struct{ Err error }

func (e *RootError) Error() string { return "mpc: session OT root: " + e.Err.Error() }
func (e *RootError) Unwrap() error { return e.Err }

// root is a session's OT setup: this endpoint's ends of both extension
// directions and both KKRT orientations, built on stream RootStream by
// the first OT need of any stream, in one background goroutine, and
// read-only afterwards. It costs the session ot.SetupCost +
// ot.DeriveCost + 2·ot.KKRTSetupCost once, on no query's stream.
type root struct {
	s    *Session
	once sync.Once
	done chan struct{} // closed when the setup has finished, err set on failure
	err  error

	otSend   *ot.Sender
	otRecv   *ot.Receiver
	kkrtSend *ot.KKRTSender
	kkrtRecv *ot.KKRTReceiver
}

// wait starts the setup if nobody has, and returns the root once it is
// set up. It gives up when ctx ends or the waiting stream has ended
// (transport.Ended); the setup goes on for the next stream.
func (r *root) wait(ctx context.Context, ended <-chan struct{}) (*root, error) {
	r.once.Do(func() { go r.build() })
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	select {
	case <-r.done:
		if r.err != nil {
			return nil, r.err
		}
		return r, nil
	case <-cancel:
		return nil, ctx.Err()
	case <-ended:
		return nil, transport.ErrClosed
	}
}

// build runs the setup on the reserved stream and closes it: the setup
// is its only traffic, and a failed one closes it under the peer's
// setup too.
func (r *root) build() {
	defer close(r.done)
	c, _, err := r.s.openStream(RootStream)
	if err == nil {
		err = r.setup(c)
		c.Close()
	}
	if err != nil {
		r.err = &RootError{Err: err}
	}
}

// setup runs the root's exchanges in one fixed order: Alice as the
// extension sender runs the P-256 base OTs and receives the GGM
// corrections, the opposite direction is derived from it
// (ot.Receiver.Reverse), then the KKRT extension with Alice as PSI
// sender, then Bob's. Every end serves stream RootStream, so the random
// OTs the derivations take lie in its window.
func (r *root) setup(c transport.Conn) (err error) {
	if r.s.role == Alice {
		if r.otSend, err = ot.NewSender(c); err != nil {
			return err
		}
		r.otSend = r.otSend.Stream(c, RootStream)
		r.otRecv, err = r.otSend.Reverse()
	} else {
		if r.otRecv, err = ot.NewReceiver(c); err != nil {
			return err
		}
		r.otRecv = r.otRecv.Stream(c, RootStream)
		r.otSend, err = r.otRecv.Reverse()
	}
	if err != nil {
		return err
	}
	for _, sender := range []Role{Alice, Bob} {
		if sender == r.s.role {
			r.kkrtSend, err = ot.NewKKRTSender(r.otRecv)
		} else {
			r.kkrtRecv, err = ot.NewKKRTReceiver(r.otSend)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// SessionConfig tunes a protocol session.
type SessionConfig struct {
	// Heartbeat configures the underlying transport.Mux; see
	// transport.MuxConfig.
	Heartbeat time.Duration
	// WrapStream, when set, wraps each new stream's Conn before the
	// Party is built around it — the hook the fault-injection
	// robustness suite uses to perturb exactly one of N runs.
	WrapStream func(id uint32, c transport.Conn) transport.Conn
	// SID is the observability session ID every Party built from this
	// session carries in its Tag and the mux stamps on its fault
	// events. Minted by the root session layer (obs.NextSessionID); 0
	// leaves events unattributed. Process-local only, never on the
	// wire.
	SID uint64
}

// Session runs many logical protocol executions over one Conn.
type Session struct {
	role Role
	ring share.Ring
	mux  *transport.Mux
	cfg  SessionConfig
	next atomic.Uint32
	root *root
}

// NewSession starts a multiplexed protocol session over conn. The
// session owns conn. It does not block: the OT root is set up on the
// first OT need of any stream.
func NewSession(role Role, conn transport.Conn, ring share.Ring, cfg SessionConfig) *Session {
	s := &Session{
		role: role,
		ring: ring.OrDefault(),
		mux: transport.NewMux(conn, transport.MuxConfig{
			Heartbeat: cfg.Heartbeat,
			SID:       cfg.SID,
		}),
		cfg: cfg,
	}
	s.root = &root{s: s, done: make(chan struct{})}
	return s
}

// SessionPair returns two connected in-memory sessions. Only tests call
// it, core's among them.
func SessionPair(ring share.Ring, cfg SessionConfig) (alice, bob *Session) {
	ca, cb := transport.Pair()
	return NewSession(Alice, ca, ring, cfg), NewSession(Bob, cb, ring, cfg)
}

// Role returns the session's protocol role.
func (s *Session) Role() Role { return s.role }

// Ring returns the session's annotation ring.
func (s *Session) Ring() share.Ring { return s.ring }

// PartyOpts is NextParty's option set. It is empty: a stream's deadline
// is its caller's context (Party.WithContext).
type PartyOpts struct{}

// OpenStream opens logical stream id for non-protocol traffic — e.g. a
// daemon's admission/control channel riding the same session as its
// query streams. The peer must open the same id. The stream follows the
// session's WrapStream hook exactly like a protocol stream; closing it
// releases only this stream. RootStream is refused.
func (s *Session) OpenStream(id uint32) (transport.Conn, error) {
	if id == RootStream {
		return nil, fmt.Errorf("mpc: stream %d is reserved for the session's OT root", id)
	}
	c, _, err := s.openStream(id)
	return c, err
}

// openStream opens stream id, the reserved one included, and returns it
// wrapped, with the mux stream's transport.Ended.
func (s *Session) openStream(id uint32) (transport.Conn, <-chan struct{}, error) {
	c, err := s.mux.Open(id)
	if err != nil {
		return nil, nil, err
	}
	ended := transport.Ended(c)
	if s.cfg.WrapStream != nil {
		c = s.cfg.WrapStream(id, c)
	}
	return c, ended, nil
}

// PartyOn opens stream id and returns a Party bound to it, whose OT
// extensions derive from the session's root. The peer must call PartyOn
// with the same id for the paired run. Closing the party's Conn
// releases only this stream; the session and its other streams are
// unaffected. RootStream is refused.
func (s *Session) PartyOn(id uint32) (*Party, error) {
	if id == RootStream {
		return nil, fmt.Errorf("mpc: stream %d is reserved for the session's OT root", id)
	}
	c, ended, err := s.openStream(id)
	if err != nil {
		return nil, err
	}
	p := NewParty(s.role, c, s.ring)
	p.Tag.SID = s.cfg.SID
	p.sess.root, p.sess.stream, p.sess.ended = s.root, id, ended
	return p, nil
}

// NextParty opens the next sequentially-numbered stream. It pairs
// correctly when both endpoints issue the same sequence of NextParty
// calls — the same symmetry every 2PC protocol here already requires
// of its call order. Concurrent heterogeneous runs should use PartyOn
// with explicit ids instead.
func (s *Session) NextParty(PartyOpts) (*Party, uint32, error) {
	id := s.next.Add(1) - 1
	p, err := s.PartyOn(id)
	return p, id, err
}

// Stats snapshots the session's rolled-up traffic: the sum of all
// stream payloads plus the mux's control-plane overhead.
func (s *Session) Stats() transport.SessionStats { return s.mux.SessionStats() }

// Err returns the session-fatal error, if any.
func (s *Session) Err() error { return s.mux.Err() }

// Done is closed when the session ends.
func (s *Session) Done() <-chan struct{} { return s.mux.Done() }

// Close tears the session down: every stream fails with ErrClosed and
// the underlying conn is closed.
func (s *Session) Close() error { return s.mux.Close() }
