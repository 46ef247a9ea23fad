package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/share"
	"secyan/internal/transport"
)

// Config configures a Daemon. Catalog is required; everything else has
// serviceable defaults.
type Config struct {
	// Catalog names the queries the daemon serves (required).
	Catalog Catalog
	// Ring is the annotation ring; clients must hello with the same
	// bit width. Zero means share.DefaultRing.
	Ring share.Ring
	// Slots bounds globally concurrent query executions (default 4).
	Slots int
	// MaxQueued bounds the total admitted-but-waiting queries across
	// all tenants (default 64); excess sheds with ErrOverloaded.
	MaxQueued int
	// Tenants maps tenant names to quotas. Unknown tenants are admitted
	// under DefaultQuota when set, rejected at hello otherwise.
	Tenants map[string]Quota
	// DefaultQuota, when non-nil, admits unknown tenants with this
	// quota.
	DefaultQuota *Quota
	// WarmAfter is the shape-observation count that triggers farm
	// warming (default DefaultWarmAfter); InventoryDepth the staged
	// bundles kept per hot shape (default DefaultInventoryDepth).
	WarmAfter      int
	InventoryDepth int
	// QueueCap / Heartbeat / PeerTimeout configure each client
	// session's transport (see mpc.SessionConfig).
	QueueCap    int
	Heartbeat   time.Duration
	PeerTimeout time.Duration
}

// Daemon is the secyand server: it accepts client sessions, admits and
// fair-schedules their queries, and runs the precompute farm. The
// daemon always plays Bob; clients play Alice and receive the results
// from their own protocol executions.
type Daemon struct {
	cfg   Config
	ring  share.Ring
	sched *scheduler
	farm  *farm

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*clientConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New builds a Daemon, enables observability (metrics + event log —
// the daemon is an ops surface) and registers /debug/tenants on the
// obs debug handler.
func New(cfg Config) (*Daemon, error) {
	if len(cfg.Catalog) == 0 {
		return nil, fmt.Errorf("secyand: config needs a catalog")
	}
	d := &Daemon{
		cfg:   cfg,
		ring:  cfg.Ring.OrDefault(),
		conns: map[*clientConn]struct{}{},
	}
	d.sched = newScheduler(cfg.Slots, cfg.MaxQueued, cfg.Tenants, cfg.DefaultQuota)
	d.farm = newFarm(mpc.Bob, d.ring.Bits, cfg.WarmAfter, cfg.InventoryDepth)
	obs.Enable()
	obs.Events().Enable()
	obs.RegisterDebugPage("/debug/tenants", d.tenantsHandler)
	return d, nil
}

// Serve accepts client connections on ln until Shutdown closes it.
func (d *Daemon) Serve(ln net.Listener) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return fmt.Errorf("secyand: daemon is shut down")
	}
	d.ln = ln
	d.mu.Unlock()
	obs.SetReady(true)
	for {
		nc, err := ln.Accept()
		if err != nil {
			d.mu.Lock()
			closed := d.closed
			d.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.handleConn(nc)
		}()
	}
}

// ListenAndServe listens on addr and serves.
func (d *Daemon) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return d.Serve(ln)
}

// Shutdown drains the daemon: readiness drops, new and queued queries
// shed with ErrOverloaded (typed, over still-open control streams),
// running queries finish (bounded by ctx), then sessions and the
// listener close.
func (d *Daemon) Shutdown(ctx context.Context) error {
	obs.SetReady(false)
	d.mu.Lock()
	alreadyClosed := d.closed
	d.closed = true
	ln := d.ln
	d.mu.Unlock()
	if alreadyClosed {
		return nil
	}
	if ln != nil {
		ln.Close()
	}
	idle := d.sched.drain()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = fmt.Errorf("secyand: shutdown: %w", ctx.Err())
	}
	d.mu.Lock()
	for cc := range d.conns {
		cc.sess.Close()
	}
	d.mu.Unlock()
	d.wg.Wait()
	d.sched.shutdown()
	d.farm.shutdown()
	return err
}

// Snapshot is the daemon's externally visible state, served as JSON at
// /debug/tenants.
type Snapshot struct {
	Draining bool           `json:"draining"`
	Slots    int            `json:"slots"`
	Running  int            `json:"running"`
	Queued   int            `json:"queued"`
	Sessions int            `json:"sessions"`
	Tenants  []TenantStatus `json:"tenants"`
	Farm     FarmStatus     `json:"farm"`
}

// Snapshot assembles the current scheduler, tenant and farm state.
func (d *Daemon) Snapshot() Snapshot {
	tenants, running, queued, draining := d.sched.snapshotTenants()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Name < tenants[j].Name })
	d.mu.Lock()
	sessions := len(d.conns)
	d.mu.Unlock()
	return Snapshot{
		Draining: draining,
		Slots:    d.sched.slots,
		Running:  running,
		Queued:   queued,
		Sessions: sessions,
		Tenants:  tenants,
		Farm:     d.farm.status(),
	}
}

// tenantsHandler serves /debug/tenants.
func (d *Daemon) tenantsHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(d.Snapshot())
}

// clientConn is one connected client session on the daemon side.
type clientConn struct {
	d      *Daemon
	sess   *mpc.Session
	sid    uint64
	tenant string
	ctrl   transport.Conn
	sendMu sync.Mutex

	// nextStream allocates query/warm stream ids; 0 is the control
	// stream.
	nextStream atomic.Uint32

	mu   sync.Mutex
	jobs map[uint64]*job // outstanding requests by client request id
}

// allocStream returns a fresh logical stream id for this session.
func (cc *clientConn) allocStream() uint32 { return cc.nextStream.Add(1) }

// send sends a control message, ignoring transport errors (a dead
// session is detected by the read loop).
func (cc *clientConn) send(m *ctrlMsg) { sendCtrl(&cc.sendMu, cc.ctrl, m) }

// handleConn owns one client connection from accept to teardown.
func (d *Daemon) handleConn(nc net.Conn) {
	sid := obs.NextSessionID()
	sess := mpc.NewSession(mpc.Bob, transport.NewConn(nc), d.ring, mpc.SessionConfig{
		QueueCap:    d.cfg.QueueCap,
		Heartbeat:   d.cfg.Heartbeat,
		PeerTimeout: d.cfg.PeerTimeout,
		SID:         sid,
	})
	defer sess.Close()
	ctrl, err := sess.OpenStream(ctrlStream, mpc.PartyOpts{})
	if err != nil {
		return
	}
	cc := &clientConn{d: d, sess: sess, sid: sid, ctrl: ctrl, jobs: map[uint64]*job{}}

	hello, err := recvCtrl(ctrl)
	if err != nil || hello.Type != msgHello {
		cc.send(&ctrlMsg{Type: msgError, Code: codeBadRequest, Detail: "expected hello"})
		return
	}
	switch {
	case hello.Proto != protoVersion:
		cc.send(&ctrlMsg{Type: msgError, Code: codeBadRequest,
			Detail: fmt.Sprintf("protocol version %d, want %d", hello.Proto, protoVersion)})
		return
	case hello.RingBits != d.ring.Bits:
		cc.send(&ctrlMsg{Type: msgError, Code: codeBadRequest,
			Detail: fmt.Sprintf("ring mismatch: client %d bits, daemon %d", hello.RingBits, d.ring.Bits)})
		return
	case hello.Tenant == "":
		cc.send(&ctrlMsg{Type: msgError, Code: codeBadRequest, Detail: "hello needs a tenant"})
		return
	case !d.sched.knownTenant(hello.Tenant):
		cc.send(&ctrlMsg{Type: msgError, Code: codeQuota,
			Detail: fmt.Sprintf("unknown tenant %q", hello.Tenant)})
		return
	}
	cc.tenant = hello.Tenant

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		cc.send(&ctrlMsg{Type: msgError, Code: codeOverloaded, Detail: "draining"})
		return
	}
	d.conns[cc] = struct{}{}
	d.mu.Unlock()
	mSessions.Add(1)
	if lg := obs.Events(); lg.On() {
		lg.Emit("daemon.session.open", obs.QueryTag{SID: sid, Tenant: cc.tenant})
	}
	defer func() {
		d.mu.Lock()
		delete(d.conns, cc)
		d.mu.Unlock()
		mSessions.Add(-1)
		cc.cancelOutstanding()
		if lg := obs.Events(); lg.On() {
			lg.Emit("daemon.session.close", obs.QueryTag{SID: sid, Tenant: cc.tenant})
		}
	}()

	cc.send(&ctrlMsg{Type: msgWelcome, Proto: protoVersion, RingBits: d.ring.Bits})

	for {
		m, err := recvCtrl(ctrl)
		if err != nil {
			return
		}
		switch m.Type {
		case msgQuery:
			cc.handleQuery(m)
		case msgBye:
			return
		default:
			cc.send(&ctrlMsg{Type: msgError, Code: codeBadRequest,
				Detail: fmt.Sprintf("unexpected %q", m.Type)})
		}
	}
}

// cancelOutstanding sheds every queued job of a torn-down connection;
// running jobs fail on their broken streams and complete on their own.
func (cc *clientConn) cancelOutstanding() {
	cc.mu.Lock()
	jobs := make([]*job, 0, len(cc.jobs))
	for _, j := range cc.jobs {
		jobs = append(jobs, j)
	}
	cc.mu.Unlock()
	for _, j := range jobs {
		cc.d.sched.cancel(j)
	}
}

// dropJob removes a finished/shed job from the outstanding map.
func (cc *clientConn) dropJob(id uint64) {
	cc.mu.Lock()
	delete(cc.jobs, id)
	cc.mu.Unlock()
}

// queryState carries one admitted query's execution ingredients from
// admission to dispatch.
type queryState struct {
	cc     *clientConn
	id     uint64 // client request id
	runner Runner
	shape  *core.Query
	opts   core.Options // resolved once at admission; explain, warm and run all see it
	ctx    context.Context
	cancel context.CancelFunc

	// Cooperative warm pass state: warmDone is non-nil once a warm was
	// launched; the runner joins it before going online.
	warmDone   chan struct{}
	warmStream uint32
	warmParty  *mpc.Party
	warmErr    error
}

// handleQuery admits one query request: price it, enqueue it under the
// tenant's quota, optionally launch the cooperative warm pass, and
// hand it to the scheduler. Rejections answer on the control stream —
// the connection always stays open.
func (cc *clientConn) handleQuery(m *ctrlMsg) {
	d := cc.d
	reject := func(code, detail string) {
		cc.send(&ctrlMsg{Type: msgRejected, ID: m.ID, Code: code, Detail: detail})
		if lg := obs.Events(); lg.On() {
			lg.Emit("daemon.reject", obs.QueryTag{SID: cc.sid, Tenant: cc.tenant},
				slog.String("query", m.Name), slog.String("code", code), slog.String("detail", detail))
		}
	}

	runner, ok := d.cfg.Catalog[m.Name]
	if !ok {
		reject(codeUnknownQuery, fmt.Sprintf("query %q not in catalog", m.Name))
		return
	}
	backend, err := core.ParseBackend(m.Backend)
	if err != nil {
		reject(codeBadRequest, err.Error())
		return
	}
	opts := core.Options{ChunkSize: m.Chunk, Backend: backend}
	shape, plan, err := shapeDigest(runner, d.ring.Bits, opts)
	if err != nil {
		reject(codeInternal, err.Error())
		return
	}
	digest := plan.DigestString()
	predicted := d.farm.observe(digest, m.Name, shape, opts)

	var ctx context.Context
	var cancel context.CancelFunc
	if m.DeadlineMS > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), time.Duration(m.DeadlineMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	qs := &queryState{
		cc: cc, id: m.ID, runner: runner, shape: shape, opts: opts,
		ctx: ctx, cancel: cancel,
	}
	t := d.sched.tenantRef(cc.tenant)
	if t == nil {
		cancel()
		reject(codeQuota, fmt.Sprintf("unknown tenant %q", cc.tenant))
		return
	}
	j := &job{
		tenant: t,
		qid:    obs.NextQueryID(),
		name:   m.Name,
		digest: digest,
		cost:   plan.EstBytes,
		exec:   qs.exec,
		shed:   qs.shed,
	}
	cc.mu.Lock()
	cc.jobs[m.ID] = j
	cc.mu.Unlock()

	willWait, err := d.sched.enqueue(j)
	if err != nil {
		cc.dropJob(m.ID)
		cancel()
		reject(codeFor(err), err.Error())
		return
	}
	if lg := obs.Events(); lg.On() {
		lg.Emit("daemon.enqueue", obs.QueryTag{SID: cc.sid, QID: j.qid, Tenant: cc.tenant},
			slog.String("query", m.Name),
			slog.String("plan_digest", digest),
			slog.Int64("cost", j.cost),
			slog.Bool("waits", willWait))
	}

	// Cooperative warm: only worth the traffic when the job will sit in
	// the queue and the shape is predicted. The job stays unready until
	// the decision (and the warm itself) lands, so dispatch cannot race
	// it.
	if willWait && predicted {
		stream := cc.allocStream()
		qs.warmDone = make(chan struct{})
		qs.warmStream = stream
		cc.send(&ctrlMsg{Type: msgWarm, ID: m.ID, Name: m.Name, Stream: stream})
		go func() {
			defer close(qs.warmDone)
			defer d.sched.markReady(j)
			p, err := cc.sess.PartyOn(stream, mpc.PartyOpts{})
			if err != nil {
				qs.warmErr = err
				return
			}
			p.Tag = obs.QueryTag{SID: cc.sid, QID: j.qid, Tenant: cc.tenant}
			// The warm pass: OT pool fills (two-party traffic) plus
			// ahead-of-time garbling, staged onto p for the online run
			// that follows on the same stream.
			if _, err := core.PrecomputeOpts(qs.ctx, p, qs.shape, qs.opts); err != nil {
				p.Conn.Close()
				qs.warmErr = err
				return
			}
			qs.warmParty = p
			if lg := obs.Events(); lg.On() {
				lg.Emit("daemon.warm", p.Tag, slog.String("query", m.Name), slog.Uint64("stream", uint64(stream)))
			}
		}()
		return
	}
	d.sched.markReady(j)
}

// shed answers a scheduler-dropped job (drain or dead connection) with
// a typed rejection and releases its state.
func (qs *queryState) shed(j *job, err error) {
	qs.cc.dropJob(qs.id)
	qs.cancel()
	if p := qs.joinWarm(); p != nil {
		p.Conn.Close()
	}
	qs.cc.send(&ctrlMsg{Type: msgRejected, ID: qs.id, Code: codeFor(err), Detail: err.Error()})
	if lg := obs.Events(); lg.On() {
		lg.Emit("daemon.reject", obs.QueryTag{SID: qs.cc.sid, QID: j.qid, Tenant: j.tenant.name},
			slog.String("query", j.name), slog.String("code", codeFor(err)), slog.String("detail", err.Error()))
	}
}

// joinWarm waits for a launched warm pass and returns its party (nil
// when none was launched or it failed).
func (qs *queryState) joinWarm() *mpc.Party {
	if qs.warmDone == nil {
		return nil
	}
	<-qs.warmDone
	return qs.warmParty
}

// exec runs one dispatched query: pick up warm material (or a staged
// inventory bundle), tell the client which stream to run on, execute
// the daemon's half, and report completion to the scheduler.
func (qs *queryState) exec(j *job) {
	cc := qs.cc
	d := cc.d
	defer qs.cancel()
	defer cc.dropJob(qs.id)

	var p *mpc.Party
	warmed := false
	if qs.warmDone != nil {
		if p = qs.joinWarm(); p != nil {
			warmed = true
			d.farm.hit("offline")
		} else {
			d.farm.miss()
		}
	}
	stream := qs.warmStream
	if p == nil {
		stream = cc.allocStream()
		var err error
		p, err = cc.sess.PartyOn(stream, mpc.PartyOpts{})
		if err != nil {
			cc.send(&ctrlMsg{Type: msgRejected, ID: qs.id, Code: codeInternal, Detail: err.Error()})
			d.sched.complete(j, err, 0)
			return
		}
		p.Tag = obs.QueryTag{SID: cc.sid, QID: j.qid, Tenant: j.tenant.name}
		if qs.warmDone == nil {
			if sc := d.farm.takeInventory(j.digest); sc != nil {
				sc.Attach(p)
				d.farm.hit("circuits")
			} else {
				d.farm.miss()
			}
		}
	}
	cc.send(&ctrlMsg{Type: msgAdmitted, ID: qs.id, Stream: stream, Warm: warmed})
	if lg := obs.Events(); lg.On() {
		lg.Emit("daemon.dispatch", p.Tag,
			slog.String("query", j.name),
			slog.Uint64("stream", uint64(stream)),
			slog.Bool("warm", warmed))
	}

	before := p.Conn.Stats().TotalBytes()
	_, err := qs.runner.Run(qs.ctx, p, qs.opts)
	bytes := p.Conn.Stats().TotalBytes() - before
	p.Conn.Close()
	d.sched.complete(j, err, bytes)
	if lg := obs.Events(); lg.On() {
		attrs := []slog.Attr{
			slog.String("query", j.name),
			slog.Int64("bytes", bytes),
		}
		if err != nil {
			attrs = append(attrs, slog.String("error", err.Error()))
		}
		lg.Emit("daemon.complete", p.Tag, attrs...)
	}
}
