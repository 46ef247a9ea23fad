package transport

// This file implements the stream-multiplexing session layer: a Mux
// frames messages with a stream ID over one underlying Conn and hands
// out logical per-stream Conns, so N independent protocol executions
// (online queries, background Precompute pool fills) share a single
// authenticated transport. Design points:
//
//   - Framing: every underlying message is [1-byte type | 4-byte LE
//     stream id | payload]. The underlying Conn is already
//     message-oriented, so no length prefix is needed here.
//   - Ordering: one reader goroutine drains the underlying conn into
//     per-stream FIFO queues, so each logical stream preserves the
//     send order of its peer exactly like a dedicated connection.
//   - Backpressure: receive queues are bounded (MuxConfig.QueueCap)
//     with credit-based flow control. A sender starts with QueueCap
//     credits per stream, spends one per message, and regains them as
//     the peer's consumer drains the queue (credits are granted in
//     batches to halve the control-frame overhead). A stream whose
//     consumer stalls blocks only its own senders; siblings proceed.
//   - Liveness: optional idle heartbeats (ping/pong answered by the
//     peer's reader goroutine, independent of protocol progress). A
//     session that hears nothing for PeerTimeout fails with
//     ErrPeerTimeout.
//   - Deadlines: a session deadline bounds the whole Mux; per-stream
//     deadlines bound one logical conn. Both surface as
//     context.DeadlineExceeded so errors.Is works uniformly with
//     context-scoped cancellation.
//   - Error propagation: a stream failing, closing, or being
//     cancelled never poisons its siblings; every stream error is
//     wrapped in a StreamError carrying the stream ID, with Unwrap
//     preserving errors.Is(err, ErrClosed) / errors.Is(err, ctx.Err()).
//   - Accounting: each logical stream counts payload bytes, messages
//     and rounds exactly like a dedicated Conn (mux headers and
//     control frames are excluded), so per-stream Stats are
//     byte-identical to the same protocol run on a bare connection.
//     Control-plane overhead is reported separately in SessionStats.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"secyan/internal/obs"
)

// Frame types of the mux wire format.
const (
	muxData   byte = 1 // payload for a stream's receive queue
	muxClose  byte = 2 // sender is done with the stream
	muxPing   byte = 3 // liveness probe
	muxPong   byte = 4 // liveness reply
	muxCredit byte = 5 // flow-control grant: payload = 4-byte LE count
)

// muxHeaderSize is the per-message framing overhead of the session
// layer: 1 type byte plus the 4-byte stream id.
const muxHeaderSize = 5

// Session-layer errors.
var (
	// ErrPeerTimeout reports a peer that stopped responding to
	// heartbeats within MuxConfig.PeerTimeout.
	ErrPeerTimeout = errors.New("transport: peer liveness timeout")
	// ErrStreamInUse reports an Open of a stream id this session
	// already opened; stream ids are single-use.
	ErrStreamInUse = errors.New("transport: stream id already open")
)

// StreamError labels a failure with the logical stream it happened on,
// so one of N concurrent protocol runs can be identified from the error
// alone. Unwrap exposes the cause for errors.Is/errors.As — in
// particular errors.Is(err, ErrClosed) and
// errors.Is(err, context.DeadlineExceeded) see through the label.
type StreamError struct {
	Stream uint32
	Err    error
}

func (e *StreamError) Error() string {
	return fmt.Sprintf("transport: stream %d: %v", e.Stream, e.Err)
}

func (e *StreamError) Unwrap() error { return e.Err }

// MuxConfig tunes a session. The zero value is usable: no heartbeats,
// no deadline, and DefaultQueueCap message queues.
type MuxConfig struct {
	// QueueCap bounds each stream's receive queue in messages and is
	// the initial per-stream send credit. 0 means DefaultQueueCap.
	QueueCap int
	// Heartbeat, when positive, sends a ping on this interval and
	// enables peer-liveness detection.
	Heartbeat time.Duration
	// PeerTimeout fails the session when nothing (data or control) has
	// been heard from the peer for this long. 0 defaults to
	// 3×Heartbeat; ignored when Heartbeat is 0.
	PeerTimeout time.Duration
	// Deadline, when positive, bounds the whole session from NewMux;
	// on expiry every stream fails with context.DeadlineExceeded.
	Deadline time.Duration
	// SID is the observability session ID stamped on the mux's fault
	// and heartbeat events (obs.Events). Process-local bookkeeping
	// only; it never appears in any frame.
	SID uint64
}

// DefaultQueueCap is the per-stream receive-queue bound (in messages)
// when MuxConfig.QueueCap is 0. The protocols in this repository are
// lockstep — a party never streams more than a few messages ahead of
// its peer's reads — so the bound exists to contain misbehaving or
// faulty peers, not to throttle healthy ones.
const DefaultQueueCap = 64

// Session-layer metrics (off until obs.Enable, like all obs counters).
var (
	mMuxSessions      = obs.NewCounter("secyan_mux_sessions_total", "Mux sessions created in this process.")
	mMuxOpenSessions  = obs.NewGauge("secyan_mux_open_sessions", "Mux sessions currently open.")
	mMuxStreams       = obs.NewCounter("secyan_mux_streams_total", "Logical streams opened across all mux sessions.")
	mMuxOpenStreams   = obs.NewGauge("secyan_mux_open_streams", "Logical streams currently open.")
	mMuxBlockedSends  = obs.NewGauge("secyan_mux_blocked_streams", "Streams currently blocked in Send waiting for flow-control credit.")
	mMuxPingsSent     = obs.NewCounter("secyan_mux_pings_sent_total", "Heartbeat pings sent.")
	mMuxPongsRecv     = obs.NewCounter("secyan_mux_pongs_recv_total", "Heartbeat pongs received.")
	mMuxCreditsSent   = obs.NewCounter("secyan_mux_credit_msgs_sent_total", "Flow-control credit messages sent.")
	mMuxControlBytes  = obs.NewCounter("secyan_mux_control_bytes_total", "Control-plane bytes sent (headers of control frames plus payloads).")
	mMuxPeerTimeouts  = obs.NewCounter("secyan_mux_peer_timeouts_total", "Sessions failed by peer-liveness timeout.")
	mMuxStreamsFailed = obs.NewCounter("secyan_mux_streams_failed_total", "Streams that ended with an error (session failure, deadline, or peer reset).")
)

// SessionStats is the rolled-up view of one Mux endpoint: the sum of
// every stream's payload traffic plus the session's own control-plane
// overhead, which per-stream Stats deliberately exclude.
type SessionStats struct {
	// Streams counts streams ever opened by this endpoint; OpenStreams
	// counts those not yet closed.
	Streams     int
	OpenStreams int
	// Data aggregates the per-stream payload Stats (bytes, messages;
	// Rounds is the sum of per-stream rounds, not a session-level
	// direction-switch count).
	Data Stats
	// Control counts session-layer frames that carry no protocol
	// payload: pings, pongs and credit grants, in both directions.
	ControlMsgsSent int64
	ControlMsgsRecv int64
	// OverheadBytesSent is the framing overhead this endpoint added on
	// the wire: mux headers on data frames plus entire control frames.
	OverheadBytesSent int64
}

// Mux multiplexes logical streams over one underlying Conn. Both
// endpoints must wrap their conn ends with compatible configs (the
// queue capacity is the flow-control window and must match). Streams
// are identified by caller-chosen ids: the two parties open matching
// ids for the protocol runs they want paired, exactly as they already
// agree on the query each run executes.
type Mux struct {
	base Conn
	cfg  MuxConfig

	sendMu sync.Mutex // serializes writes to base

	mu       sync.Mutex
	streams  map[uint32]*muxStream
	opened   map[uint32]bool // ids Open has handed out (single-use)
	err      error           // session-fatal error, sticky
	closed   bool
	nStreams int

	done chan struct{} // closed on session failure/close

	liveMu    sync.Mutex
	lastHeard time.Time

	ctlMsgsSent, ctlMsgsRecv, ovhBytesSent int64 // under mu
}

// NewMux starts a session over base. The Mux owns base: closing the
// Mux closes it, and no other reader may touch it.
func NewMux(base Conn, cfg MuxConfig) *Mux {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.Heartbeat > 0 && cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 3 * cfg.Heartbeat
	}
	m := &Mux{
		base:    base,
		cfg:     cfg,
		streams: make(map[uint32]*muxStream),
		opened:  make(map[uint32]bool),
		done:    make(chan struct{}),
	}
	m.liveMu.Lock()
	m.lastHeard = time.Now()
	m.liveMu.Unlock()
	mMuxSessions.Inc()
	mMuxOpenSessions.Add(1)
	go m.readLoop()
	if cfg.Heartbeat > 0 {
		go m.heartbeatLoop()
	}
	if cfg.Deadline > 0 {
		t := time.AfterFunc(cfg.Deadline, func() {
			m.fail(fmt.Errorf("transport: session deadline: %w", context.DeadlineExceeded))
		})
		go func() {
			<-m.done
			t.Stop()
		}()
	}
	return m
}

// StreamOptions configure one logical stream.
type StreamOptions struct {
	// Deadline, when positive, bounds the stream's lifetime from Open;
	// on expiry its operations fail with context.DeadlineExceeded and
	// the peer's half is released.
	Deadline time.Duration
}

// Open returns the logical Conn for stream id. Ids are single-use per
// session and paired across the two endpoints: the peer's Open of the
// same id yields the other end of the stream. Messages that arrived
// before the local Open are buffered (within the queue bound) and
// delivered in order.
func (m *Mux) Open(id uint32) (Conn, error) { return m.OpenStream(id, StreamOptions{}) }

// OpenStream is Open with per-stream options.
func (m *Mux) OpenStream(id uint32, opts StreamOptions) (Conn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	if m.closed {
		return nil, ErrClosed
	}
	if m.opened[id] {
		return nil, &StreamError{Stream: id, Err: ErrStreamInUse}
	}
	m.opened[id] = true
	s := m.streamLocked(id)
	s.mu.Lock()
	s.handedOut = true
	s.mu.Unlock()
	m.nStreams++
	mMuxStreams.Inc()
	mMuxOpenStreams.Add(1)
	if opts.Deadline > 0 {
		s.deadlineTimer = time.AfterFunc(opts.Deadline, func() {
			s.fail(fmt.Errorf("stream deadline: %w", context.DeadlineExceeded))
		})
	}
	return s, nil
}

// Err returns the session-fatal error, or nil while the session is
// healthy.
func (m *Mux) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Done is closed when the session ends (failure or Close).
func (m *Mux) Done() <-chan struct{} { return m.done }

// SessionStats snapshots the rolled-up traffic of this endpoint.
func (m *Mux) SessionStats() SessionStats {
	m.mu.Lock()
	st := SessionStats{
		Streams:           m.nStreams,
		ControlMsgsSent:   m.ctlMsgsSent,
		ControlMsgsRecv:   m.ctlMsgsRecv,
		OverheadBytesSent: m.ovhBytesSent,
	}
	streams := make([]*muxStream, 0, len(m.streams))
	for _, s := range m.streams {
		streams = append(streams, s)
	}
	m.mu.Unlock()
	for _, s := range streams {
		s.mu.Lock()
		if s.handedOut && !s.localClosed {
			st.OpenStreams++
		}
		st.Data.BytesSent += s.stats.BytesSent
		st.Data.BytesReceived += s.stats.BytesReceived
		st.Data.MessagesSent += s.stats.MessagesSent
		st.Data.MessagesRecv += s.stats.MessagesRecv
		st.Data.Rounds += s.stats.Rounds
		s.mu.Unlock()
	}
	return st
}

// Close ends the session: every stream fails with ErrClosed and the
// underlying conn is closed.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.fail(ErrClosed)
	return nil
}

// fail makes err the sticky session error, wakes every blocked stream
// operation, and tears down the underlying conn.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return
	}
	m.err = err
	streams := make([]*muxStream, 0, len(m.streams))
	for _, s := range m.streams {
		streams = append(streams, s)
	}
	m.mu.Unlock()
	// Session faults land in the event log; orderly Close (ErrClosed)
	// and the already-evented peer timeout do not double-report.
	if obs.Enabled() && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrPeerTimeout) {
		obs.Events().Emit("mux.fault", obs.QueryTag{SID: m.cfg.SID}, slog.String("error", err.Error()))
	}
	close(m.done)
	m.base.Close()
	for _, s := range streams {
		s.fail(err)
	}
	mMuxOpenSessions.Add(-1)
}

// streamLocked returns the state record for id, creating it if needed.
// Caller holds m.mu.
func (m *Mux) streamLocked(id uint32) *muxStream {
	s := m.streams[id]
	if s == nil {
		s = &muxStream{id: id, m: m, credit: m.cfg.QueueCap}
		s.cond = sync.NewCond(&s.mu)
		m.streams[id] = s
	}
	return s
}

// stream returns the state record for id, creating it if needed.
func (m *Mux) stream(id uint32) *muxStream {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.streamLocked(id)
}

// sendFrame writes one mux frame to the underlying conn. control
// marks frames that carry no protocol payload, for overhead
// accounting.
func (m *Mux) sendFrame(typ byte, id uint32, payload []byte, control bool) error {
	buf := make([]byte, muxHeaderSize+len(payload))
	buf[0] = typ
	binary.LittleEndian.PutUint32(buf[1:], id)
	copy(buf[muxHeaderSize:], payload)
	m.sendMu.Lock()
	err := m.base.Send(buf)
	m.sendMu.Unlock()
	if err != nil {
		return err
	}
	m.mu.Lock()
	if control {
		m.ctlMsgsSent++
		m.ovhBytesSent += int64(len(buf))
		mMuxControlBytes.Add(int64(len(buf)))
	} else {
		m.ovhBytesSent += muxHeaderSize
		mMuxControlBytes.Add(muxHeaderSize)
	}
	m.mu.Unlock()
	return nil
}

// readLoop is the session's single reader: it drains the underlying
// conn and dispatches frames to streams. It exits when the conn fails
// (peer gone, session closed) and propagates that to every stream.
func (m *Mux) readLoop() {
	for {
		buf, err := m.base.Recv()
		if err != nil {
			m.fail(err)
			return
		}
		if len(buf) < muxHeaderSize {
			m.fail(fmt.Errorf("transport: mux frame of %d bytes is shorter than the %d-byte header", len(buf), muxHeaderSize))
			return
		}
		m.liveMu.Lock()
		m.lastHeard = time.Now()
		m.liveMu.Unlock()
		typ, id, payload := buf[0], binary.LittleEndian.Uint32(buf[1:]), buf[muxHeaderSize:]
		switch typ {
		case muxData:
			if err := m.stream(id).deliver(payload); err != nil {
				m.fail(err)
				return
			}
		case muxClose:
			m.stream(id).peerClose()
			m.noteControlRecv()
		case muxPing:
			m.noteControlRecv()
			if err := m.sendFrame(muxPong, 0, nil, true); err != nil {
				m.fail(err)
				return
			}
		case muxPong:
			mMuxPongsRecv.Inc()
			m.noteControlRecv()
		case muxCredit:
			if len(payload) != 4 {
				m.fail(fmt.Errorf("transport: mux credit frame with %d-byte payload", len(payload)))
				return
			}
			m.stream(id).addCredit(int(binary.LittleEndian.Uint32(payload)))
			m.noteControlRecv()
		default:
			m.fail(fmt.Errorf("transport: unknown mux frame type %d", typ))
			return
		}
	}
}

func (m *Mux) noteControlRecv() {
	m.mu.Lock()
	m.ctlMsgsRecv++
	m.mu.Unlock()
}

// heartbeatLoop pings the peer every Heartbeat and fails the session
// when nothing has been heard for PeerTimeout. Pongs come from the
// peer's reader goroutine, so liveness detection keeps working while
// the peer's protocol goroutines are deep in local compute.
func (m *Mux) heartbeatLoop() {
	t := time.NewTicker(m.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-t.C:
			m.liveMu.Lock()
			silent := time.Since(m.lastHeard)
			m.liveMu.Unlock()
			if silent > m.cfg.PeerTimeout {
				mMuxPeerTimeouts.Inc()
				if obs.Enabled() {
					obs.Events().Emit("heartbeat.timeout", obs.QueryTag{SID: m.cfg.SID},
						slog.Duration("silent", silent), slog.Duration("limit", m.cfg.PeerTimeout))
				}
				m.fail(fmt.Errorf("%w: nothing heard for %v", ErrPeerTimeout, silent.Round(time.Millisecond)))
				return
			}
			mMuxPingsSent.Inc()
			if err := m.sendFrame(muxPing, 0, nil, true); err != nil {
				m.fail(err)
				return
			}
		}
	}
}

// muxStream is one logical stream endpoint. It satisfies Conn with the
// same accounting semantics as a dedicated connection.
type muxStream struct {
	id uint32
	m  *Mux

	mu   sync.Mutex
	cond *sync.Cond

	queue       [][]byte
	credit      int // messages we may still send before the peer drains
	unacked     int // messages consumed locally but not yet credited back
	handedOut   bool
	localClosed bool
	peerClosed  bool
	failErr     error

	deadlineTimer *time.Timer

	stats    Stats
	lastRecv bool
	started  bool
}

// deliver enqueues an inbound payload. A queue past its bound means
// the peer violated flow control: that is a session-fatal protocol
// error (returned to the read loop), not a silent unbounded buffer.
func (s *muxStream) deliver(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failErr != nil || s.localClosed {
		// Stream already gone locally; drop late data.
		return nil
	}
	if len(s.queue) >= s.m.cfg.QueueCap {
		return fmt.Errorf("transport: stream %d receive queue overflow (%d messages, credit window %d)", s.id, len(s.queue)+1, s.m.cfg.QueueCap)
	}
	s.queue = append(s.queue, payload)
	s.cond.Broadcast()
	return nil
}

// peerClose marks the peer's half of the stream finished: pending
// queued messages remain readable, then Recv reports ErrClosed.
func (s *muxStream) peerClose() {
	s.mu.Lock()
	s.peerClosed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// addCredit returns flow-control window to the sender side.
func (s *muxStream) addCredit(n int) {
	s.mu.Lock()
	s.credit += n
	s.cond.Broadcast()
	s.mu.Unlock()
}

// fail terminates the stream with err (session failure, stream
// deadline): blocked operations wake and report it.
func (s *muxStream) fail(err error) {
	s.mu.Lock()
	already := s.failErr != nil
	if !already {
		s.failErr = err
	}
	handed := s.handedOut
	closed := s.localClosed
	s.cond.Broadcast()
	s.mu.Unlock()
	if already {
		return
	}
	mMuxStreamsFailed.Inc()
	if obs.Enabled() {
		obs.Events().Emit("stream.fail", obs.QueryTag{SID: s.m.cfg.SID},
			slog.Uint64("stream", uint64(s.id)), slog.String("error", err.Error()))
	}
	if handed && !closed {
		// Release the peer's half: without this, a stream failed by
		// its own deadline would leave the peer blocked forever.
		_ = s.m.sendFrame(muxClose, s.id, nil, true)
		s.markClosed()
	}
}

// markClosed flips localClosed once and updates the open-streams gauge.
func (s *muxStream) markClosed() {
	s.mu.Lock()
	was := s.localClosed
	s.localClosed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if !was {
		mMuxOpenStreams.Add(-1)
	}
}

// labeled wraps an error with the stream id, collapsing double labels.
func (s *muxStream) labeled(err error) error {
	var se *StreamError
	if errors.As(err, &se) && se.Stream == s.id {
		return err
	}
	return &StreamError{Stream: s.id, Err: err}
}

func (s *muxStream) Send(data []byte) error {
	s.mu.Lock()
	blocked := false
	for s.credit == 0 && s.failErr == nil && !s.localClosed {
		if !blocked {
			blocked = true
			mMuxBlockedSends.Add(1)
		}
		s.cond.Wait()
	}
	if blocked {
		mMuxBlockedSends.Add(-1)
	}
	if s.failErr != nil {
		err := s.failErr
		s.mu.Unlock()
		return s.labeled(err)
	}
	if s.localClosed {
		s.mu.Unlock()
		return s.labeled(ErrClosed)
	}
	s.credit--
	s.mu.Unlock()

	if err := s.m.sendFrame(muxData, s.id, data, false); err != nil {
		return s.labeled(err)
	}
	s.mu.Lock()
	s.stats.BytesSent += int64(len(data))
	s.stats.MessagesSent++
	round := s.lastRecv || !s.started
	if round {
		s.stats.Rounds++
	}
	s.lastRecv = false
	s.started = true
	s.mu.Unlock()
	mBytesSent.Add(int64(len(data)))
	mMsgsSent.Inc()
	if round {
		mRounds.Inc()
	}
	return nil
}

// creditGrantThreshold returns how many consumed messages accumulate
// before a credit frame is sent. Batching halves the control traffic;
// the sender never starves because it starts with a full window.
func (s *muxStream) creditGrantThreshold() int {
	t := s.m.cfg.QueueCap / 2
	if t < 1 {
		t = 1
	}
	return t
}

func (s *muxStream) Recv() ([]byte, error) {
	s.mu.Lock()
	for len(s.queue) == 0 && s.failErr == nil && !s.peerClosed && !s.localClosed {
		s.cond.Wait()
	}
	if len(s.queue) == 0 {
		var err error
		switch {
		case s.failErr != nil:
			err = s.failErr
		default:
			err = ErrClosed // peer or local close with nothing pending
		}
		s.mu.Unlock()
		return nil, s.labeled(err)
	}
	msg := s.queue[0]
	s.queue[0] = nil // the backing array must not keep a consumed message alive
	s.queue = s.queue[1:]
	s.unacked++
	grant := 0
	if s.unacked >= s.creditGrantThreshold() {
		grant = s.unacked
		s.unacked = 0
	}
	s.stats.BytesReceived += int64(len(msg))
	s.stats.MessagesRecv++
	s.lastRecv = true
	s.started = true
	dead := s.failErr != nil || s.localClosed
	s.mu.Unlock()
	mBytesRecv.Add(int64(len(msg)))
	mMsgsRecv.Inc()
	if grant > 0 && !dead {
		var pay [4]byte
		binary.LittleEndian.PutUint32(pay[:], uint32(grant))
		mMuxCreditsSent.Inc()
		// A failed credit send means the session is going down; the
		// session error will surface on the next blocking operation.
		_ = s.m.sendFrame(muxCredit, s.id, pay[:], true)
	}
	return msg, nil
}

func (s *muxStream) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *muxStream) ResetStats() {
	s.mu.Lock()
	s.stats = Stats{}
	s.lastRecv = false
	s.started = false
	s.mu.Unlock()
}

// Close releases this half of the stream. The peer can drain messages
// already sent, then sees ErrClosed. Siblings and the session itself
// are untouched — this is what lets one cancelled query leave N-1
// others running.
func (s *muxStream) Close() error {
	s.mu.Lock()
	if s.localClosed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if s.deadlineTimer != nil {
		s.deadlineTimer.Stop()
	}
	sessionDown := s.m.Err() != nil
	s.markClosed()
	if !sessionDown {
		_ = s.m.sendFrame(muxClose, s.id, nil, true)
	}
	return nil
}
