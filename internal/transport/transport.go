// Package transport provides the two-party communication substrate used by
// every protocol in this repository. A Conn is a reliable, ordered,
// message-oriented duplex channel between Alice and Bob. Implementations
// count bytes and communication rounds so that benchmark results report
// measured (not modeled) communication cost, matching the methodology of
// the Secure Yannakakis paper (SIGMOD 2021, §8).
//
// Two implementations are provided: an in-memory pipe (Pair) used by the
// benchmarks and tests, and a TCP transport (Dial/Listen) for running the
// two parties as separate processes.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"secyan/internal/obs"
)

// ErrClosed is returned by Send and Recv after the connection is closed.
var ErrClosed = errors.New("transport: connection closed")

// Process-wide traffic metrics, aggregated over every Conn of both
// implementations. They re-export what per-connection Stats already
// measure so the debug server's /metrics shows live totals; per-step
// attribution stays with Stats snapshots. Collection is off until
// obs.Enable, so the per-message cost is one atomic load per counter.
var (
	mBytesSent = obs.NewCounter("secyan_transport_bytes_sent_total", "Payload bytes sent over all connections of this process.")
	mBytesRecv = obs.NewCounter("secyan_transport_bytes_recv_total", "Payload bytes received over all connections of this process.")
	mMsgsSent  = obs.NewCounter("secyan_transport_msgs_sent_total", "Messages sent over all connections of this process.")
	mMsgsRecv  = obs.NewCounter("secyan_transport_msgs_recv_total", "Messages received over all connections of this process.")
	mRounds    = obs.NewCounter("secyan_transport_rounds_total", "Direction switches (communication rounds) observed by sending endpoints of this process.")
)

// MaxMessageSize bounds a single message. It exists to catch corrupted
// length prefixes on the wire before attempting a huge allocation. It is
// a typed int64 (and fits in 31 bits) so that comparisons against
// int64(len(...)) are exact on 32-bit platforms, where an untyped 1<<32
// constant would not even compile as an int.
const MaxMessageSize int64 = 1<<31 - 1

// Stats records the traffic observed by one endpoint of a connection.
type Stats struct {
	BytesSent     int64 // payload bytes written by this endpoint
	BytesReceived int64 // payload bytes read by this endpoint
	MessagesSent  int64
	MessagesRecv  int64
	// Rounds counts direction switches: it increments every time this
	// endpoint sends after having received (or at the very first send).
	// The protocol's round complexity is max over both endpoints.
	Rounds int64
}

// TotalBytes returns the bytes transferred in both directions.
func (s Stats) TotalBytes() int64 { return s.BytesSent + s.BytesReceived }

// RecvWait returns how long c's Recv calls have spent blocked so far,
// waiting for the peer's messages: a cumulative wall time, whose
// difference over a protocol step is the step's time blocked on the
// peer. It lives outside Stats, whose values the equivalence suites
// compare whole: a wait is a timing, not a transcript. The pipe, TCP and
// mux-stream conns count it, and the wrappers of this package pass it
// through; any other Conn reads 0.
func RecvWait(c Conn) time.Duration {
	if w, ok := c.(interface{ RecvWait() time.Duration }); ok {
		return w.RecvWait()
	}
	return 0
}

// waitClock accumulates the time a conn's Recv calls block.
type waitClock struct{ ns atomic.Int64 }

// since adds the time from start to now.
func (w *waitClock) since(start time.Time) { w.ns.Add(int64(time.Since(start))) }

func (w *waitClock) RecvWait() time.Duration { return time.Duration(w.ns.Load()) }

// Conn is a message-oriented duplex channel between the two parties.
// Implementations must be safe for one concurrent sender and one
// concurrent receiver, which is all the protocols in this repository need.
type Conn interface {
	// Send transmits one message and takes ownership of data: the caller
	// must neither modify nor reuse it once Send is called, and the peer
	// may receive the very same slice (the in-memory pipe hands it over;
	// TCP and mux frames copy it onto the wire).
	Send(data []byte) error
	// Recv blocks until the next message arrives and returns it. The
	// message belongs to the caller, who may modify it in place.
	Recv() ([]byte, error)
	// Stats returns a snapshot of the traffic counters.
	Stats() Stats
	// Close releases the connection. Pending and future calls fail with
	// ErrClosed.
	Close() error
}

// unboundedQueue is a closable FIFO of messages with no capacity limit, so
// both parties may stream messages without risk of a send/send deadlock.
type unboundedQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  [][]byte // queued messages from items[head] on
	head   int
	closed bool
}

func newUnboundedQueue() *unboundedQueue {
	q := &unboundedQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *unboundedQueue) push(m []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Slide the live messages down instead of growing past slots
		// already consumed.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, m)
	q.cond.Signal()
	return nil
}

func (q *unboundedQueue) pop() ([]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return nil, ErrClosed
	}
	m := q.items[q.head]
	q.items[q.head] = nil // the backing array must not keep a consumed message alive
	q.head++
	if q.head == len(q.items) {
		// Drained: the next push reuses the backing array from its start.
		q.items, q.head = q.items[:0], 0
	}
	return m, nil
}

func (q *unboundedQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// pipeEnd is one endpoint of an in-memory duplex pipe.
type pipeEnd struct {
	in  *unboundedQueue
	out *unboundedQueue

	mu       sync.Mutex
	stats    Stats
	lastRecv bool // true if the last counted operation was a receive
	started  bool
	waitClock
}

// Pair returns the two connected endpoints of an in-memory transport.
// Messages sent on one endpoint arrive, in order, at the other.
func Pair() (alice, bob Conn) {
	ab := newUnboundedQueue()
	ba := newUnboundedQueue()
	return &pipeEnd{in: ba, out: ab}, &pipeEnd{in: ab, out: ba}
}

// Send hands data itself to the peer's queue: under the Conn contract it
// is the peer's from here on, so the pipe copies nothing.
func (p *pipeEnd) Send(data []byte) error {
	if err := p.out.push(data); err != nil {
		return err
	}
	p.mu.Lock()
	p.stats.BytesSent += int64(len(data))
	p.stats.MessagesSent++
	round := p.lastRecv || !p.started
	if round {
		p.stats.Rounds++
	}
	p.lastRecv = false
	p.started = true
	p.mu.Unlock()
	mBytesSent.Add(int64(len(data)))
	mMsgsSent.Inc()
	if round {
		mRounds.Inc()
	}
	return nil
}

func (p *pipeEnd) Recv() ([]byte, error) {
	start := time.Now()
	m, err := p.in.pop()
	p.since(start)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.stats.BytesReceived += int64(len(m))
	p.stats.MessagesRecv++
	p.lastRecv = true
	p.started = true
	p.mu.Unlock()
	mBytesRecv.Add(int64(len(m)))
	mMsgsRecv.Inc()
	return m, nil
}

func (p *pipeEnd) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

func (p *pipeEnd) Close() error {
	p.in.close()
	p.out.close()
	return nil
}

// SizeError reports a message from the peer whose length differs from
// the one the protocol's public parameters fix.
type SizeError struct {
	What      string // which message, prefixed with its package
	Got, Want int    // bytes
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("%s: got %d bytes, want %d", e.What, e.Got, e.Want)
}

// RecvSized receives one message and checks it against the length the
// receiver derived from public parameters, so that a short, long or
// peer-sized message is a *SizeError before a byte of it is read or
// anything is allocated from it.
func RecvSized(c Conn, what string, want int) ([]byte, error) {
	msg, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if len(msg) != want {
		return nil, &SizeError{what, len(msg), want}
	}
	return msg, nil
}

// SendUint64s encodes vs in little-endian and sends them as one message.
func SendUint64s(c Conn, vs []uint64) error {
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	return c.Send(buf)
}

// RecvUint64s receives one message of exactly n little-endian uint64s —
// a count the receiver derives from public parameters — and decodes it.
// A message of any other length is a *SizeError naming what, before
// anything is decoded or allocated from it.
func RecvUint64s(c Conn, what string, n int) ([]uint64, error) {
	buf, err := RecvSized(c, what, 8*n)
	if err != nil {
		return nil, err
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return vs, nil
}

// SendUint64 sends a single little-endian uint64.
func SendUint64(c Conn, v uint64) error { return SendUint64s(c, []uint64{v}) }

// RecvUint64 receives a single little-endian uint64; any other length is
// a *SizeError naming what.
func RecvUint64(c Conn, what string) (uint64, error) {
	vs, err := RecvUint64s(c, what, 1)
	if err != nil {
		return 0, err
	}
	return vs[0], nil
}
