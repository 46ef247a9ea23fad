package mpc

// Session multiplexes independent protocol executions over one
// connection: each logical stream gets its own Party (own OT-extension
// state, own PRG, own precomputed-circuit queues), so N queries — or a
// background Precompute filling pools while online queries run — share
// a single authenticated transport without sharing any cryptographic
// state. Stream pairing follows the same convention as query
// descriptions: the two endpoints open matching stream ids for the
// runs they want paired (NextParty hands out sequential ids for
// symmetric call orders; PartyOn takes an explicit id when concurrent
// heterogeneous runs need deterministic pairing).

import (
	"sync/atomic"
	"time"

	"secyan/internal/share"
	"secyan/internal/transport"
)

// SessionConfig tunes a protocol session.
type SessionConfig struct {
	// QueueCap, Heartbeat, PeerTimeout and Deadline configure the
	// underlying transport.Mux; see transport.MuxConfig.
	QueueCap    int
	Heartbeat   time.Duration
	PeerTimeout time.Duration
	Deadline    time.Duration
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
}

// NewSession starts a multiplexed protocol session over conn. The
// session owns conn. Both endpoints must use compatible configs (the
// queue capacity is the flow-control window).
func NewSession(role Role, conn transport.Conn, ring share.Ring, cfg SessionConfig) *Session {
	return &Session{
		role: role,
		ring: ring.OrDefault(),
		mux: transport.NewMux(conn, transport.MuxConfig{
			QueueCap:    cfg.QueueCap,
			Heartbeat:   cfg.Heartbeat,
			PeerTimeout: cfg.PeerTimeout,
			Deadline:    cfg.Deadline,
			SID:         cfg.SID,
		}),
		cfg: cfg,
	}
}

// SessionPair returns two connected in-memory sessions, for tests and
// in-process benchmarks.
func SessionPair(ring share.Ring, cfg SessionConfig) (alice, bob *Session) {
	ca, cb := transport.Pair()
	return NewSession(Alice, ca, ring, cfg), NewSession(Bob, cb, ring, cfg)
}

// Role returns the session's protocol role.
func (s *Session) Role() Role { return s.role }

// Ring returns the session's annotation ring.
func (s *Session) Ring() share.Ring { return s.ring }

// PartyOpts tune one stream-scoped Party.
type PartyOpts struct {
	// Deadline bounds this stream; 0 means unbounded.
	Deadline time.Duration
}

// OpenStream opens logical stream id for non-protocol traffic — e.g. a
// daemon's admission/control channel riding the same session as its
// query streams. The peer must open the same id. The stream follows the
// session's WrapStream hook exactly like a
// protocol stream; closing it releases only this stream.
func (s *Session) OpenStream(id uint32, opts PartyOpts) (transport.Conn, error) {
	c, err := s.mux.OpenStream(id, transport.StreamOptions{Deadline: opts.Deadline})
	if err != nil {
		return nil, err
	}
	if s.cfg.WrapStream != nil {
		c = s.cfg.WrapStream(id, c)
	}
	return c, nil
}

// PartyOn opens stream id and returns a Party bound to it. The peer
// must call PartyOn with the same id for the paired run. Closing the
// party's Conn releases only this stream; the session and its other
// streams are unaffected.
func (s *Session) PartyOn(id uint32, opts PartyOpts) (*Party, error) {
	c, err := s.OpenStream(id, opts)
	if err != nil {
		return nil, err
	}
	p := NewParty(s.role, c, s.ring)
	p.Tag.SID = s.cfg.SID
	return p, nil
}

// NextParty opens the next sequentially-numbered stream. It pairs
// correctly when both endpoints issue the same sequence of NextParty
// calls — the same symmetry every 2PC protocol here already requires
// of its call order. Concurrent heterogeneous runs should use PartyOn
// with explicit ids instead.
func (s *Session) NextParty(opts PartyOpts) (*Party, uint32, error) {
	id := s.next.Add(1) - 1
	p, err := s.PartyOn(id, opts)
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
