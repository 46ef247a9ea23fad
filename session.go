package secyan

// The Session API is the package's one way to run a protocol: one
// Session per party multiplexes any number of executions — online
// queries, shared-result compositions, SQL statements, background
// Precompute passes — over a single connection, with heartbeats and
// per-stream fault isolation provided by the transport session layer
// and per-execution deadlines by each call's context.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/transport"
)

// Tracer records span timelines of protocol runs; see WithTracer and
// the observability section of DESIGN.md.
type Tracer = obs.Tracer

// NewTracer returns an empty span recorder for WithTracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// SessionStats is the rolled-up traffic of one Session endpoint:
// per-stream payload totals plus the session layer's control-plane
// overhead (heartbeats, flow-control credits, stream headers).
type SessionStats = transport.SessionStats

// StreamError labels a failure with the logical stream it occurred on;
// errors returned by Session methods unwrap through it, so
// errors.Is(err, ctx.Err()) and errors.As(&StreamError{}) both work.
type StreamError = transport.StreamError

// ErrPeerTimeout reports a peer that stopped answering heartbeats.
var ErrPeerTimeout = transport.ErrPeerTimeout

// config is the one configuration value behind every Option: Open keeps
// it as the session's defaults, and each call on the session resolves
// its own copy (defaults, then the call's options on top) exactly once,
// at admission.
type config struct {
	ring           Ring
	tracer         *Tracer
	streamDeadline time.Duration
	heartbeat      time.Duration
	estOut         int
	backend        core.BackendID
	tenant         string
	shared         bool
	wrapStream     func(id uint32, c Conn) Conn
}

// plan is the config's view of one query: the core.Options that
// Explain, Precompute and Query all compile the same plan from.
func (c *config) plan() core.Options {
	return core.Options{EstOut: c.estOut, Backend: c.backend}
}

// Option configures a session and the executions on it. Given to Open
// (OpenLocal, ListenSession, DialSession) an option sets the session's
// default; the options that describe a single execution — WithBackend,
// WithEstOut, WithTenant, WithStreamDeadline, WithSharedResult — may
// also be given to Query, Precompute, RevealRatio, ExecSQL and Explain,
// where they override that default for the one call. Options that
// shape the connection (WithRing on a Session, WithHeartbeat,
// WithStreamWrapper) are fixed at Open and ignored per call.
type Option func(*config)

// WithRing selects the annotation ring (default: DefaultRing, the
// paper's ℓ=32).
func WithRing(r Ring) Option { return func(c *config) { c.ring = r } }

// WithTracer records run/phase/step/kernel span timelines of every
// execution on the session, one track per party and stream.
func WithTracer(tr *Tracer) Option { return func(c *config) { c.tracer = tr } }

// WithStreamDeadline bounds each individual protocol execution: it runs
// under a context that expires after d, so it fails with
// context.DeadlineExceeded (wrapped in the execution's StreamError)
// when exceeded, and the rest of the session carries on.
func WithStreamDeadline(d time.Duration) Option { return func(c *config) { c.streamDeadline = d } }

// WithHeartbeat enables idle heartbeats on the session: pings every
// interval, and failure with ErrPeerTimeout once the peer has been
// silent for three intervals.
func WithHeartbeat(interval time.Duration) Option { return func(c *config) { c.heartbeat = interval } }

// WithEstOut sets the assumed output size that prices the join-phase
// steps of multi-survivor queries. The join-tree root is chosen by
// total estimate, so both parties must configure the same value.
func WithEstOut(n int) Option { return func(c *config) { c.estOut = n } }

// WithBackend forces every semijoin/aggregate step onto one secure-join
// backend wherever it is applicable (BackendPSIOEP, BackendGC); steps where it does not apply keep the cost-based choice.
// The zero value selects the cheapest applicable backend per step. Both
// parties must configure the same backend: it changes the transcript.
func WithBackend(b BackendID) Option { return func(c *config) { c.backend = b } }

// WithTenant labels queries with a tenant — the billing/scheduling
// principal carried on events, labeled metrics and flight records (and
// used by the secyand daemon for fair scheduling and quota accounting).
// Process-local bookkeeping only, never on the wire.
func WithTenant(name string) Option { return func(c *config) { c.tenant = name } }

// WithStreamWrapper interposes f on every logical stream the session
// opens — the hook behind fault injection (see transport.InjectFaults)
// and per-stream instrumentation. f must preserve Conn semantics.
func WithStreamWrapper(f func(id uint32, c Conn) Conn) Option {
	return func(c *config) { c.wrapStream = f }
}

// WithSharedResult keeps the result annotations secret-shared instead
// of revealing them to Alice: Query returns Result.Shared in place of
// Result.Relation — the building block of the paper-§7 compositions
// (see RevealRatio).
func WithSharedResult() Option { return func(c *config) { c.shared = true } }

// with is the one place a configuration is decided: c as the defaults,
// opts applied on top.
func (c config) with(opts []Option) config {
	for _, o := range opts {
		o(&c)
	}
	return c
}

func buildConfig(opts []Option) config {
	c := config{ring: DefaultRing}.with(opts)
	c.ring = c.ring.OrDefault()
	return c
}

// Session is one party's endpoint of a multiplexed protocol session:
// concurrent Query/Precompute/RevealRatio/ExecSQL calls each execute on
// their own logical stream over the shared connection. The two parties
// must issue the same sequence of session calls (the symmetry every 2PC
// protocol here already requires); concurrent calls pair by stream
// open order, so heterogeneous concurrent queries should be issued in
// a deterministic order on both sides.
type Session struct {
	cfg  config
	role Role
	sid  uint64 // observability session ID (obs.NextSessionID)
	sess *mpc.Session

	mu     sync.Mutex
	staged []stagedParty
}

// SID returns the session's process-local observability ID: the
// session ID stamped on every event and flight record this session's
// queries emit.
func (s *Session) SID() uint64 { return s.sid }

// stagedParty is a stream whose party holds material from a Precompute
// pass, parked until the next execution consumes it.
type stagedParty struct {
	p  *mpc.Party
	id uint32
}

// Open starts a session over conn for the given role. The session owns
// conn: close the session, not the conn. Both parties must open
// compatible sessions (same ring) over the two ends of one connection.
func Open(role Role, conn Conn, opts ...Option) (*Session, error) {
	if role != Alice && role != Bob {
		return nil, fmt.Errorf("secyan: invalid role %d", role)
	}
	cfg := buildConfig(opts)
	sid := obs.NextSessionID()
	sess := &Session{
		cfg:  cfg,
		role: role,
		sid:  sid,
		sess: mpc.NewSession(role, conn, cfg.ring, mpc.SessionConfig{
			Heartbeat:  cfg.heartbeat,
			WrapStream: cfg.wrapStream,
			SID:        sid,
		}),
	}
	if obs.Enabled() {
		obs.Events().Emit("session.open", obs.QueryTag{SID: sid}, slog.String("role", role.String()))
	}
	return sess, nil
}

// OpenLocal returns two connected in-process sessions over an
// in-memory transport, for tests, demos and benchmarks.
func OpenLocal(opts ...Option) (alice, bob *Session) {
	ca, cb := transport.Pair()
	alice, _ = Open(Alice, ca, opts...)
	bob, _ = Open(Bob, cb, opts...)
	return alice, bob
}

// ListenSession accepts one TCP connection and opens a session over it.
func ListenSession(addr string, role Role, opts ...Option) (*Session, error) {
	c, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return Open(role, c, opts...)
}

// DialSession connects to a listening peer and opens a session.
func DialSession(addr string, role Role, opts ...Option) (*Session, error) {
	c, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return Open(role, c, opts...)
}

// execution is one admitted protocol execution: its stream-scoped
// party, the context bounded by the resolved per-execution deadline,
// and the core.Options every core call of the execution receives
// unchanged.
type execution struct {
	ctx    context.Context
	cancel context.CancelFunc
	p      *mpc.Party
	id     uint32
	opts   core.Options
}

// admit turns a resolved config into an execution. It obtains the
// stream — a parked Precompute stream if one is staged and fresh is
// false, a new one otherwise — arms the deadline, mints the query ID,
// stamps it on the party's tag (so events emitted below the executor
// attribute correctly) and emits the query.admit event. Admission is
// pure process-local bookkeeping: with observation off it is one atomic
// load.
func (s *Session) admit(ctx context.Context, cfg config, kind string, fresh bool) (*execution, error) {
	var sp stagedParty
	s.mu.Lock()
	if !fresh && len(s.staged) > 0 {
		sp, s.staged = s.staged[0], s.staged[1:]
	}
	s.mu.Unlock()
	if sp.p == nil {
		var err error
		if sp.p, sp.id, err = s.sess.NextParty(mpc.PartyOpts{}); err != nil {
			return nil, err
		}
		if s.cfg.tracer != nil {
			sp.p.Track = s.cfg.tracer.Track(fmt.Sprintf("%s/stream-%d", s.role, sp.id))
		}
	}
	x := &execution{ctx: ctx, cancel: func() {}, p: sp.p, id: sp.id, opts: cfg.plan()}
	if cfg.streamDeadline > 0 {
		x.ctx, x.cancel = context.WithTimeout(ctx, cfg.streamDeadline)
	}
	tag := obs.QueryTag{SID: s.sid, Tenant: cfg.tenant}
	if obs.Enabled() {
		tag.QID = obs.NextQueryID()
		obs.Events().Emit("query.admit", tag,
			slog.String("kind", kind),
			slog.String("role", s.role.String()),
			slog.Uint64("stream", uint64(sp.id)))
	}
	x.p.Tag = tag
	return x, nil
}

// Result is the outcome of one query execution on a Session. Exactly
// one of Relation and Shared is populated on success, depending on
// WithSharedResult (and on the party: only Alice receives revealed
// rows). Trace is always attached — valid as a prefix even when the
// execution failed.
type Result struct {
	// Relation is the revealed result (Alice's side of a revealing run;
	// nil on Bob and for shared runs).
	Relation *Relation
	// Shared is the still-secret-shared result of a WithSharedResult
	// run, combinable across runs (see RevealRatio).
	Shared *SharedResult
	// Trace is the per-step execution trace.
	Trace *Trace
}

// Query executes the secure Yannakakis protocol for q on its own
// stream. Alice receives the query results in Result.Relation; Bob
// receives none. With WithSharedResult the annotations stay
// secret-shared and Result.Shared is filled instead. A preceding
// Precompute of the same query shape is consumed transparently. The
// returned Result is non-nil even on error, carrying the prefix trace.
func (s *Session) Query(ctx context.Context, q *Query, opts ...Option) (*Result, error) {
	cfg := s.cfg.with(opts)
	kind := "run"
	if cfg.shared {
		kind = "run-shared"
	}
	res := &Result{}
	x, err := s.admit(ctx, cfg, kind, false)
	if err != nil {
		return res, err
	}
	defer x.cancel()
	defer x.p.Conn.Close()
	if cfg.shared {
		res.Shared, res.Trace, err = core.RunShared(x.ctx, x.p, q, x.opts)
	} else {
		res.Relation, res.Trace, err = core.Run(x.ctx, x.p, q, x.opts)
	}
	return res, s.labeled(x.id, err)
}

// Precompute executes the offline phase of q's plan on a background
// stream — OT pool fills and ahead-of-time garbling can overlap online
// queries running on other streams — under the same resolved options
// the query itself must then run with. The offline phase is
// data-independent: q may be a bare query shape (schemas, owners,
// sizes) with no relations attached. The staged material is parked and
// consumed by the next execution on this session; both parties must
// keep their call sequences aligned, as always.
func (s *Session) Precompute(ctx context.Context, q *Query, opts ...Option) (*Trace, error) {
	x, err := s.admit(ctx, s.cfg.with(opts), "precompute", true)
	if err != nil {
		return nil, err
	}
	defer x.cancel()
	tr, err := core.PrecomputeOpts(x.ctx, x.p, q, x.opts)
	if err != nil {
		x.p.Conn.Close()
		return tr, s.labeled(x.id, err)
	}
	s.mu.Lock()
	s.staged = append(s.staged, stagedParty{p: x.p, id: x.id})
	s.mu.Unlock()
	return tr, nil
}

// RevealRatio reveals (num·scale)/den per result row to Alice on a
// fresh stream — the composition used for AVG and market-share style
// aggregates over two WithSharedResult results.
func (s *Session) RevealRatio(ctx context.Context, num, den *SharedResult, scale uint64, opts ...Option) (*Relation, error) {
	x, err := s.admit(ctx, s.cfg.with(opts), "reveal-ratio", false)
	if err != nil {
		return nil, err
	}
	defer x.cancel()
	defer x.p.Conn.Close()
	pp, release := x.p.WithContext(x.ctx)
	defer release()
	rel, err := core.RevealRatio(pp, num, den, scale)
	return rel, s.labeled(x.id, err)
}

// Explain derives the execution plan and communication estimate for q
// from public parameters only, under the same resolved options a Query
// with the same opts would run with.
func (s *Session) Explain(q *Query, opts ...Option) (*Plan, error) {
	cfg := s.cfg.with(opts)
	return core.ExplainOpts(q, cfg.ring.OrDefault().Bits, cfg.plan())
}

// Stats snapshots the session's rolled-up traffic.
func (s *Session) Stats() SessionStats { return s.sess.Stats() }

// Err returns the session-fatal error, or nil while healthy.
func (s *Session) Err() error { return s.sess.Err() }

// Close ends the session; in-flight executions fail with ErrClosed.
func (s *Session) Close() error {
	if obs.Enabled() {
		obs.Events().Emit("session.close", obs.QueryTag{SID: s.sid}, slog.String("role", s.role.String()))
	}
	return s.sess.Close()
}

// labeled ensures an execution error carries its stream id (executor
// errors are already phase/op-labeled; transport errors arrive
// pre-labeled by the mux and are left alone).
func (s *Session) labeled(id uint32, err error) error {
	var se *StreamError
	if err == nil || errors.As(err, &se) {
		return err
	}
	return &StreamError{Stream: id, Err: err}
}
