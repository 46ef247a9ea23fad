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
//   - Backpressure: receive queues hold at most queueCap messages, with
//     credit-based flow control. A sender starts with queueCap credits
//     per stream, spends one per message, and regains them as the
//     peer's consumer drains the queue (credits are granted in batches
//     to halve the control-frame overhead). A stream whose consumer
//     stalls blocks only its own senders; siblings proceed.
//   - Liveness: optional idle heartbeats (ping/pong answered by the
//     peer's reader goroutine, independent of protocol progress). A
//     session that hears nothing for three heartbeats fails with
//     ErrPeerTimeout.
//   - Bounded state: a stream's record is released when it is closed
//     locally or the session fails, and later frames for its id are
//     dropped. Frames for an id not yet opened here are buffered (the
//     peer may open first), in at most queueCap such records. Deadlines
//     are the caller's: a context around the stream (WithContext).
//   - Error propagation: a stream failing, closing, or being
//     cancelled never poisons its siblings; every stream error is
//     wrapped in a StreamError carrying the stream ID, with Unwrap
//     preserving errors.Is(err, ErrClosed). A peer that breaks the
//     frame protocol fails the session with ErrProtocol.
//   - Accounting: each logical stream counts payload bytes, messages
//     and rounds exactly like a dedicated Conn (mux headers and
//     control frames are excluded), so per-stream Stats are
//     byte-identical to the same protocol run on a bare connection.
//     Control-plane overhead is reported separately in SessionStats.

import (
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

// queueCap is the per-stream receive-queue bound in messages, the
// initial send credit, and the bound on streams holding frames this
// endpoint has not opened yet. The protocols in this repository are
// lockstep — a party never streams more than a few messages ahead of its
// peer's reads — so the bounds exist to contain misbehaving or faulty
// peers, not to throttle healthy ones.
const queueCap = 64

// Session-layer errors.
var (
	// ErrPeerTimeout reports a peer that stopped responding to
	// heartbeats for three heartbeat intervals.
	ErrPeerTimeout = errors.New("transport: peer liveness timeout")
	// ErrStreamInUse reports an Open of a stream id this session
	// already opened; stream ids are single-use.
	ErrStreamInUse = errors.New("transport: stream id already open")
	// ErrProtocol reports a peer that broke the mux frame protocol: a
	// malformed frame, a receive queue past its credit window, or frames
	// for more streams than this endpoint buffers before their Open.
	ErrProtocol = errors.New("transport: peer broke the mux protocol")
)

// StreamError labels a failure with the logical stream it happened on,
// so one of N concurrent protocol runs can be identified from the error
// alone. Unwrap exposes the cause for errors.Is/errors.As — in
// particular errors.Is(err, ErrClosed) sees through the label.
type StreamError struct {
	Stream uint32
	Err    error
}

func (e *StreamError) Error() string {
	return fmt.Sprintf("transport: stream %d: %v", e.Stream, e.Err)
}

func (e *StreamError) Unwrap() error { return e.Err }

// MuxConfig tunes a session. The zero value is usable: no heartbeats.
type MuxConfig struct {
	// Heartbeat, when positive, sends a ping on this interval and fails
	// the session when nothing (data or control) has been heard from the
	// peer for three intervals.
	Heartbeat time.Duration
	// SID is the observability session ID stamped on the mux's fault
	// and heartbeat events (obs.Events). Process-local bookkeeping
	// only; it never appears in any frame.
	SID uint64
}

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
	mMuxStreamsFailed = obs.NewCounter("secyan_mux_streams_failed_total", "Streams still open or buffering when their session failed.")
)

// SessionStats is the rolled-up view of one Mux endpoint: the sum of
// every stream's payload traffic plus the session's own control-plane
// overhead, which per-stream Stats deliberately exclude.
type SessionStats struct {
	// Streams counts streams ever opened by this endpoint; OpenStreams
	// counts those not yet closed.
	Streams     int
	OpenStreams int
	// Data counts the payload traffic of every stream, open or released
	// (Rounds is the sum of per-stream rounds, not a session-level
	// direction-switch count).
	Data Stats
	// Control counts session-layer frames that carry no protocol
	// payload: pings, pongs, credit grants and close frames, in both
	// directions.
	ControlMsgsSent int64
	ControlMsgsRecv int64
	// OverheadBytesSent is the framing overhead this endpoint added on
	// the wire: mux headers on data frames plus entire control frames.
	OverheadBytesSent int64
}

// Mux multiplexes logical streams over one underlying Conn. Both
// endpoints must wrap their conn ends with a Mux. Streams are identified
// by caller-chosen ids: the two parties open matching ids for the
// protocol runs they want paired, exactly as they already agree on the
// query each run executes.
type Mux struct {
	base Conn
	cfg  MuxConfig

	sendMu sync.Mutex // serializes writes to base

	mu sync.Mutex
	// streams holds the live records: streams opened and not yet closed,
	// and the unopened ones holding frames for an id not yet opened here.
	streams  map[uint32]*muxStream
	unopened int
	opened   idSet // ids Open has handed out (single-use)
	err      error // session-fatal error, sticky
	closed   bool
	nStreams int

	done chan struct{} // closed on session failure/close

	liveMu    sync.Mutex
	lastHeard time.Time

	data                                   Stats // under mu
	ctlMsgsSent, ctlMsgsRecv, ovhBytesSent int64 // under mu
}

// idSet is the set of stream ids Open has handed out. Ids are single-use
// and callers allocate them in sequence, so it keeps a floor below which
// every id is taken plus the ids taken above it: its size is the
// out-of-order window, not the session's history.
type idSet struct {
	floor uint32
	above map[uint32]bool
}

func (s *idSet) has(id uint32) bool { return id < s.floor || s.above[id] }

func (s *idSet) add(id uint32) {
	s.above[id] = true
	for s.above[s.floor] {
		delete(s.above, s.floor)
		s.floor++
	}
}

// NewMux starts a session over base. The Mux owns base: closing the
// Mux closes it, and no other reader may touch it.
func NewMux(base Conn, cfg MuxConfig) *Mux {
	m := &Mux{
		base:    base,
		cfg:     cfg,
		streams: make(map[uint32]*muxStream),
		opened:  idSet{above: make(map[uint32]bool)},
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
	return m
}

// Open returns the logical Conn for stream id. Ids are single-use per
// session and paired across the two endpoints: the peer's Open of the
// same id yields the other end of the stream. Messages that arrived
// before the local Open are buffered (within the queue bound) and
// delivered in order.
func (m *Mux) Open(id uint32) (Conn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	if m.closed {
		return nil, ErrClosed
	}
	if m.opened.has(id) {
		return nil, &StreamError{Stream: id, Err: ErrStreamInUse}
	}
	m.opened.add(id)
	s := m.streams[id]
	if s == nil {
		s = m.newStreamLocked(id)
	} else {
		m.unopened-- // the record already holds the peer's early frames
	}
	s.mu.Lock()
	s.handedOut = true
	s.mu.Unlock()
	m.nStreams++
	mMuxStreams.Inc()
	mMuxOpenStreams.Add(1)
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
	defer m.mu.Unlock()
	return SessionStats{
		Streams:           m.nStreams,
		OpenStreams:       len(m.streams) - m.unopened,
		Data:              m.data,
		ControlMsgsSent:   m.ctlMsgsSent,
		ControlMsgsRecv:   m.ctlMsgsRecv,
		OverheadBytesSent: m.ovhBytesSent,
	}
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

// fail makes err the sticky session error, releases every record, wakes
// every blocked stream operation, and tears down the underlying conn.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return
	}
	m.err = err
	streams := m.streams
	m.streams, m.unopened = nil, 0
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

// newStreamLocked creates and registers the record for id. Caller holds
// m.mu.
func (m *Mux) newStreamLocked(id uint32) *muxStream {
	s := &muxStream{id: id, m: m, credit: queueCap}
	s.cond = sync.NewCond(&s.mu)
	m.streams[id] = s
	return s
}

// inbound returns the record a data or close frame for id goes to: the
// stream's own, a new one buffering an id not yet opened here, or nil
// when the frame is to be dropped (the id was released, or the session
// is down). A record past queueCap unopened ones is a protocol error.
func (m *Mux) inbound(id uint32) (*muxStream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.streams[id]; s != nil || m.err != nil || m.opened.has(id) {
		return s, nil
	}
	if m.unopened == queueCap {
		return nil, fmt.Errorf("%w: frames for more than %d streams not opened here", ErrProtocol, queueCap)
	}
	m.unopened++
	return m.newStreamLocked(id), nil
}

// release drops a closed stream's record; later frames for its id are
// dropped.
func (m *Mux) release(s *muxStream) {
	m.mu.Lock()
	delete(m.streams, s.id)
	m.mu.Unlock()
}

// addData counts one stream message in the session's payload totals.
func (m *Mux) addData(d Stats) {
	m.mu.Lock()
	m.data.BytesSent += d.BytesSent
	m.data.BytesReceived += d.BytesReceived
	m.data.MessagesSent += d.MessagesSent
	m.data.MessagesRecv += d.MessagesRecv
	m.data.Rounds += d.Rounds
	m.mu.Unlock()
}

// sendFrame writes one mux frame to the underlying conn and accounts its
// overhead: the header of a data frame, all of a control frame.
func (m *Mux) sendFrame(typ byte, id uint32, payload []byte) error {
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
	ovh := len(buf)
	m.mu.Lock()
	if typ == muxData {
		ovh = muxHeaderSize
	} else {
		m.ctlMsgsSent++
	}
	m.ovhBytesSent += int64(ovh)
	m.mu.Unlock()
	mMuxControlBytes.Add(int64(ovh))
	return nil
}

// readLoop is the session's single reader: it drains the underlying
// conn and dispatches frames to streams. It exits when the conn fails
// (peer gone, session closed) or the peer breaks the frame protocol,
// and propagates that to every stream.
func (m *Mux) readLoop() {
	for {
		buf, err := m.base.Recv()
		if err != nil {
			m.fail(err)
			return
		}
		if err := m.dispatch(buf); err != nil {
			m.fail(err)
			return
		}
	}
}

// dispatch handles one frame from the peer.
func (m *Mux) dispatch(buf []byte) error {
	if len(buf) < muxHeaderSize {
		return fmt.Errorf("%w: frame of %d bytes is shorter than the %d-byte header", ErrProtocol, len(buf), muxHeaderSize)
	}
	m.liveMu.Lock()
	m.lastHeard = time.Now()
	m.liveMu.Unlock()
	typ, id, payload := buf[0], binary.LittleEndian.Uint32(buf[1:]), buf[muxHeaderSize:]
	if typ != muxData {
		m.mu.Lock()
		m.ctlMsgsRecv++
		m.mu.Unlock()
	}
	switch typ {
	case muxData, muxClose:
		s, err := m.inbound(id)
		if err != nil || s == nil {
			return err
		}
		if typ == muxClose {
			s.peerClose()
			return nil
		}
		return s.deliver(payload)
	case muxPing:
		return m.sendFrame(muxPong, 0, nil)
	case muxPong:
		mMuxPongsRecv.Inc()
	case muxCredit:
		if len(payload) != 4 {
			return fmt.Errorf("%w: credit frame with %d-byte payload", ErrProtocol, len(payload))
		}
		m.mu.Lock()
		s := m.streams[id]
		m.mu.Unlock()
		if s != nil {
			s.addCredit(int(binary.LittleEndian.Uint32(payload)))
		}
	default:
		return fmt.Errorf("%w: unknown frame type %d", ErrProtocol, typ)
	}
	return nil
}

// heartbeatLoop pings the peer every Heartbeat and fails the session
// when nothing has been heard for three of them. Pongs come from the
// peer's reader goroutine, so liveness detection keeps working while
// the peer's protocol goroutines are deep in local compute.
func (m *Mux) heartbeatLoop() {
	limit := 3 * m.cfg.Heartbeat
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
			if silent > limit {
				mMuxPeerTimeouts.Inc()
				if obs.Enabled() {
					obs.Events().Emit("heartbeat.timeout", obs.QueryTag{SID: m.cfg.SID},
						slog.Duration("silent", silent), slog.Duration("limit", limit))
				}
				m.fail(fmt.Errorf("%w: nothing heard for %v", ErrPeerTimeout, silent.Round(time.Millisecond)))
				return
			}
			mMuxPingsSent.Inc()
			if err := m.sendFrame(muxPing, 0, nil); err != nil {
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
	if len(s.queue) >= queueCap {
		return fmt.Errorf("%w: stream %d receive queue overflow (%d messages, credit window %d)", ErrProtocol, s.id, len(s.queue)+1, queueCap)
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

// fail terminates the stream with the session's error: blocked
// operations wake and report it once the queue is drained.
func (s *muxStream) fail(err error) {
	s.mu.Lock()
	s.failErr = err
	handed := s.handedOut
	s.cond.Broadcast()
	s.mu.Unlock()
	mMuxStreamsFailed.Inc()
	if obs.Enabled() {
		obs.Events().Emit("stream.fail", obs.QueryTag{SID: s.m.cfg.SID},
			slog.Uint64("stream", uint64(s.id)), slog.String("error", err.Error()))
	}
	if handed {
		s.markClosed()
	}
}

// markClosed flips localClosed once, updating the open-streams gauge,
// and reports whether this call flipped it.
func (s *muxStream) markClosed() bool {
	s.mu.Lock()
	was := s.localClosed
	s.localClosed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if !was {
		mMuxOpenStreams.Add(-1)
	}
	return !was
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

	if err := s.m.sendFrame(muxData, s.id, data); err != nil {
		return s.labeled(err)
	}
	d := Stats{BytesSent: int64(len(data)), MessagesSent: 1}
	s.mu.Lock()
	if s.lastRecv || !s.started {
		d.Rounds = 1
	}
	s.stats.BytesSent += d.BytesSent
	s.stats.MessagesSent++
	s.stats.Rounds += d.Rounds
	s.lastRecv = false
	s.started = true
	s.mu.Unlock()
	s.m.addData(d)
	mBytesSent.Add(d.BytesSent)
	mMsgsSent.Inc()
	if d.Rounds > 0 {
		mRounds.Inc()
	}
	return nil
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
	// Credits go back in batches of half the window.
	grant := 0
	if s.unacked >= queueCap/2 {
		grant = s.unacked
		s.unacked = 0
	}
	s.stats.BytesReceived += int64(len(msg))
	s.stats.MessagesRecv++
	s.lastRecv = true
	s.started = true
	dead := s.failErr != nil || s.localClosed
	s.mu.Unlock()
	s.m.addData(Stats{BytesReceived: int64(len(msg)), MessagesRecv: 1})
	mBytesRecv.Add(int64(len(msg)))
	mMsgsRecv.Inc()
	if grant > 0 && !dead {
		var pay [4]byte
		binary.LittleEndian.PutUint32(pay[:], uint32(grant))
		mMuxCreditsSent.Inc()
		// A failed credit send means the session is going down; the
		// session error will surface on the next blocking operation.
		_ = s.m.sendFrame(muxCredit, s.id, pay[:])
	}
	return msg, nil
}

func (s *muxStream) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close releases this half of the stream and its record. The peer can
// drain messages already sent, then sees ErrClosed. Siblings and the
// session itself are untouched — this is what lets one cancelled query
// leave N-1 others running.
func (s *muxStream) Close() error {
	if !s.markClosed() {
		return nil
	}
	s.m.release(s)
	if s.m.Err() == nil {
		_ = s.m.sendFrame(muxClose, s.id, nil)
	}
	return nil
}
