package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
)

// tcpConn frames messages over a net.Conn with a 4-byte little-endian
// length prefix. It satisfies Conn and keeps the same traffic accounting as
// the in-memory pipe (payload bytes only; framing overhead is excluded so
// that the two transports report comparable numbers).
type tcpConn struct {
	nc net.Conn
	r  *bufio.Reader
	w  *bufio.Writer

	sendMu sync.Mutex
	recvMu sync.Mutex

	mu       sync.Mutex
	stats    Stats
	lastRecv bool
	started  bool
	closed   bool
}

// Listen accepts a single inbound connection on addr and returns it as a
// Conn. It is intended for running one party of a protocol as its own
// process.
func Listen(addr string) (Conn, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	nc, err := l.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// Dial connects to the party listening on addr.
func Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// NewConn wraps an established stream connection (a TCP socket, a unix
// socket, one end of net.Pipe, ...) in the length-prefix framing and
// traffic accounting of this package. The caller hands over ownership of
// nc; closing the returned Conn closes it.
func NewConn(nc net.Conn) Conn {
	return &tcpConn{
		nc: nc,
		r:  bufio.NewReaderSize(nc, 1<<16),
		w:  bufio.NewWriterSize(nc, 1<<16),
	}
}

func (t *tcpConn) Send(data []byte) error {
	if int64(len(data)) > MaxMessageSize {
		return fmt.Errorf("transport: message of %d bytes exceeds limit %d", len(data), MaxMessageSize)
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := t.w.Write(hdr[:]); err != nil {
		return t.mapErr(err)
	}
	if _, err := t.w.Write(data); err != nil {
		return t.mapErr(err)
	}
	if err := t.w.Flush(); err != nil {
		return t.mapErr(err)
	}
	t.mu.Lock()
	t.stats.BytesSent += int64(len(data))
	t.stats.MessagesSent++
	round := t.lastRecv || !t.started
	if round {
		t.stats.Rounds++
	}
	t.lastRecv = false
	t.started = true
	t.mu.Unlock()
	mBytesSent.Add(int64(len(data)))
	mMsgsSent.Inc()
	if round {
		mRounds.Inc()
	}
	return nil
}

func (t *tcpConn) Recv() ([]byte, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	buf, err := readFrame(t.r)
	if err != nil {
		return nil, t.mapErr(err)
	}
	t.mu.Lock()
	t.stats.BytesReceived += int64(len(buf))
	t.stats.MessagesRecv++
	t.lastRecv = true
	t.started = true
	t.mu.Unlock()
	mBytesRecv.Add(int64(len(buf)))
	mMsgsRecv.Inc()
	return buf, nil
}

// frameChunk caps how much readFrame allocates ahead of the data that has
// actually arrived, so a corrupt length prefix cannot trigger a huge
// allocation.
const frameChunk = 1 << 20

// readFrame decodes one length-prefixed message. The payload buffer grows
// chunk by chunk as bytes arrive rather than being allocated up front
// from the (untrusted) prefix.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := readFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:]))
	if n > MaxMessageSize {
		return nil, fmt.Errorf("transport: message of %d bytes exceeds limit %d", n, MaxMessageSize)
	}
	first := n
	if first > frameChunk {
		first = frameChunk
	}
	buf := make([]byte, 0, first)
	for int64(len(buf)) < n {
		want := n - int64(len(buf))
		if want > frameChunk {
			want = frameChunk
		}
		off := len(buf)
		buf = append(buf, make([]byte, want)...)
		if _, err := readFull(r, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func readFull(r *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// mapErr converts stream-level failures caused by connection teardown
// into the package's ErrClosed, so protocols observe the same error on
// every transport. A clean EOF from the peer also maps to ErrClosed (a
// message-oriented Conn has no in-band end-of-stream), as does a reset:
// closing a socket with unread data makes the kernel send RST, so a peer
// tearing down mid-protocol surfaces as ECONNRESET/EPIPE here.
func (t *tcpConn) mapErr(err error) error {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return ErrClosed
	}
	return err
}

func (t *tcpConn) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

func (t *tcpConn) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	return t.nc.Close()
}
