package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// muxPair returns two connected Mux endpoints over the in-memory pipe.
func muxPair(cfg MuxConfig) (*Mux, *Mux) {
	a, b := Pair()
	return NewMux(a, cfg), NewMux(b, cfg)
}

// tcpPair returns the two ends of a real loopback TCP connection.
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type res struct {
		c   Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		nc, err := l.Accept()
		if err != nil {
			ch <- res{nil, err}
			return
		}
		ch <- res{NewConn(nc), nil}
	}()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.c, NewConn(nc)
}

// muxPairTCP returns two connected Mux endpoints over a real loopback
// TCP connection.
func muxPairTCP(t *testing.T, cfg MuxConfig) (*Mux, *Mux) {
	t.Helper()
	a, b := tcpPair(t)
	return NewMux(a, cfg), NewMux(b, cfg)
}

// eachTransport runs the test body over both the pipe and TCP
// transports, per the robustness-suite requirement.
func eachTransport(t *testing.T, cfg MuxConfig, body func(t *testing.T, ma, mb *Mux)) {
	t.Run("pipe", func(t *testing.T) {
		ma, mb := muxPair(cfg)
		defer ma.Close()
		defer mb.Close()
		body(t, ma, mb)
	})
	t.Run("tcp", func(t *testing.T) {
		ma, mb := muxPairTCP(t, cfg)
		defer ma.Close()
		defer mb.Close()
		body(t, ma, mb)
	})
}

func mustOpen(t *testing.T, m *Mux, id uint32) Conn {
	t.Helper()
	c, err := m.Open(id)
	if err != nil {
		t.Fatalf("open stream %d: %v", id, err)
	}
	return c
}

// TestMuxBasicRoundTrip checks ordered delivery on one stream in both
// directions over both transports.
func TestMuxBasicRoundTrip(t *testing.T) {
	eachTransport(t, MuxConfig{}, func(t *testing.T, ma, mb *Mux) {
		ca, cb := mustOpen(t, ma, 1), mustOpen(t, mb, 1)
		for i := 0; i < 10; i++ {
			msg := []byte(fmt.Sprintf("msg-%d", i))
			if err := ca.Send(msg); err != nil {
				t.Fatal(err)
			}
			got, err := cb.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(msg) {
				t.Fatalf("got %q want %q", got, msg)
			}
			if err := cb.Send([]byte("ack")); err != nil {
				t.Fatal(err)
			}
			if _, err := ca.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestMuxInterleavedStreams drives many concurrent streams and checks
// each preserves its own FIFO order and byte counts.
func TestMuxInterleavedStreams(t *testing.T) {
	eachTransport(t, MuxConfig{}, func(t *testing.T, ma, mb *Mux) {
		const streams = 8
		const msgs = 50
		var wg sync.WaitGroup
		errs := make(chan error, 2*streams)
		for id := uint32(0); id < streams; id++ {
			ca, cb := mustOpen(t, ma, id), mustOpen(t, mb, id)
			wg.Add(2)
			go func(id uint32, c Conn) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					if err := c.Send([]byte(fmt.Sprintf("s%d-m%d", id, i))); err != nil {
						errs <- err
						return
					}
				}
			}(id, ca)
			go func(id uint32, c Conn) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					got, err := c.Recv()
					if err != nil {
						errs <- err
						return
					}
					want := fmt.Sprintf("s%d-m%d", id, i)
					if string(got) != want {
						errs <- fmt.Errorf("stream %d: got %q want %q", id, got, want)
						return
					}
				}
			}(id, cb)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		st := ma.SessionStats()
		if st.Streams != streams {
			t.Fatalf("alice-side streams: %d", st.Streams)
		}
		if st.Data.MessagesSent != streams*msgs {
			t.Fatalf("rolled-up messages sent: %d want %d", st.Data.MessagesSent, streams*msgs)
		}
	})
}

// TestMuxStreamStatsMatchBareConn proves the per-stream accounting
// equals a dedicated connection's for the same message sequence.
func TestMuxStreamStatsMatchBareConn(t *testing.T) {
	script := func(c Conn, peer Conn) {
		c.Send([]byte("hello"))
		peer.Recv()
		peer.Send([]byte("world!"))
		c.Recv()
		c.Send([]byte("a"))
		c.Send([]byte("bb"))
		peer.Recv()
		peer.Recv()
	}
	ba, bb := Pair()
	script(ba, bb)
	want := ba.Stats()

	ma, mb := muxPair(MuxConfig{})
	defer ma.Close()
	defer mb.Close()
	ca, cb := mustOpen(t, ma, 7), mustOpen(t, mb, 7)
	script(ca, cb)
	if got := ca.Stats(); got != want {
		t.Fatalf("mux stream stats %+v differ from bare conn stats %+v", got, want)
	}
}

// TestMuxSiblingIsolation closes one stream mid-conversation and
// checks its sibling continues unharmed while the closed stream's peer
// gets a labeled ErrClosed.
func TestMuxSiblingIsolation(t *testing.T) {
	eachTransport(t, MuxConfig{}, func(t *testing.T, ma, mb *Mux) {
		c1a, c1b := mustOpen(t, ma, 1), mustOpen(t, mb, 1)
		c2a, c2b := mustOpen(t, ma, 2), mustOpen(t, mb, 2)

		c1a.Close()
		if _, err := c1b.Recv(); err == nil {
			t.Fatal("recv on closed stream succeeded")
		} else {
			var se *StreamError
			if !errors.As(err, &se) || se.Stream != 1 {
				t.Fatalf("error not labeled with stream 1: %v", err)
			}
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("error does not unwrap to ErrClosed: %v", err)
			}
		}

		// The sibling still works in both directions.
		if err := c2a.Send([]byte("still here")); err != nil {
			t.Fatal(err)
		}
		if got, err := c2b.Recv(); err != nil || string(got) != "still here" {
			t.Fatalf("sibling recv: %q, %v", got, err)
		}
		if err := c2b.Send([]byte("ok")); err != nil {
			t.Fatal(err)
		}
		if _, err := c2a.Recv(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMuxBackpressure checks that a sender outrunning a stalled
// consumer blocks at the credit window and resumes once the consumer
// drains, without disturbing other streams.
func TestMuxBackpressure(t *testing.T) {
	const cap = queueCap
	ma, mb := muxPair(MuxConfig{})
	defer ma.Close()
	defer mb.Close()
	ca, cb := mustOpen(t, ma, 1), mustOpen(t, mb, 1)
	other, otherB := mustOpen(t, ma, 2), mustOpen(t, mb, 2)

	sent := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < 3*cap; i++ {
			if err := ca.Send([]byte{byte(i)}); err != nil {
				break
			}
			n++
		}
		sent <- n
	}()
	// Give the sender time to run into the window.
	time.Sleep(50 * time.Millisecond)
	select {
	case n := <-sent:
		t.Fatalf("sender finished %d sends with a stalled consumer and window %d", n, cap)
	default:
	}
	// A sibling stream is unaffected by the stalled one.
	if err := other.Send([]byte("sibling")); err != nil {
		t.Fatal(err)
	}
	if _, err := otherB.Recv(); err != nil {
		t.Fatal(err)
	}
	// Drain; the sender must complete all messages in order.
	for i := 0; i < 3*cap; i++ {
		got, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("message %d out of order: %d", i, got[0])
		}
	}
	if n := <-sent; n != 3*cap {
		t.Fatalf("sender completed %d of %d sends", n, 3*cap)
	}
}

// TestMuxHeartbeatDetectsDeadPeer puts a blackhole between the
// parties: Alice's frames vanish and Bob goes silent, so Alice's
// liveness timer must fail her session with ErrPeerTimeout after three
// heartbeats.
func TestMuxHeartbeatDetectsDeadPeer(t *testing.T) {
	a, b := Pair()
	// Blackhole: drop everything Bob would send, so Alice hears nothing.
	silent := InjectFaults(b, func() []Fault {
		fs := make([]Fault, 200)
		for i := range fs {
			fs[i] = Fault{AtSend: i + 1, Mode: FaultDrop}
		}
		return fs
	}()...)
	ma := NewMux(a, MuxConfig{Heartbeat: 20 * time.Millisecond})
	mb := NewMux(silent, MuxConfig{})
	defer ma.Close()
	defer mb.Close()

	ca := mustOpen(t, ma, 1)
	deadline := time.After(5 * time.Second)
	select {
	case <-ma.Done():
	case <-deadline:
		t.Fatal("liveness timeout did not fire")
	}
	if err := ma.Err(); !errors.Is(err, ErrPeerTimeout) {
		t.Fatalf("session error: %v", err)
	}
	if _, err := ca.Recv(); !errors.Is(err, ErrPeerTimeout) {
		t.Fatalf("stream error after peer timeout: %v", err)
	}
}

// TestMuxHeartbeatKeepsHealthySessionAlive runs a session with fast
// heartbeats on one side only over a window several timeouts long: no
// data flows and the peer never pings, so the session lives on the
// pongs its reader returns.
func TestMuxHeartbeatKeepsHealthySessionAlive(t *testing.T) {
	a, b := Pair()
	ma, mb := NewMux(a, MuxConfig{Heartbeat: 15 * time.Millisecond}), NewMux(b, MuxConfig{})
	defer ma.Close()
	defer mb.Close()
	time.Sleep(200 * time.Millisecond)
	if err := ma.Err(); err != nil {
		t.Fatalf("healthy session failed: %v", err)
	}
	if err := mb.Err(); err != nil {
		t.Fatalf("healthy session failed: %v", err)
	}
}

// TestMuxStreamDeadline bounds one stream by a context deadline
// (WithContext): its expiry fails that stream with
// context.DeadlineExceeded and closes it, so the peer's half is
// released rather than hung, and the sibling carries on.
func TestMuxStreamDeadline(t *testing.T) {
	eachTransport(t, MuxConfig{}, func(t *testing.T, ma, mb *Mux) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		ca, release := WithContext(ctx, mustOpen(t, ma, 1))
		defer release()
		cb := mustOpen(t, mb, 1)
		sibA, sibB := mustOpen(t, ma, 2), mustOpen(t, mb, 2)

		if _, err := ca.Recv(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline stream error: %v", err)
		}
		if _, err := cb.Recv(); !errors.Is(err, ErrClosed) {
			t.Fatalf("peer of expired stream: %v", err)
		}
		if err := sibA.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := sibB.Recv(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMuxStreamIDReuseRejected: ids are single-use.
func TestMuxStreamIDReuseRejected(t *testing.T) {
	ma, mb := muxPair(MuxConfig{})
	defer ma.Close()
	defer mb.Close()
	mustOpen(t, ma, 3)
	if _, err := ma.Open(3); !errors.Is(err, ErrStreamInUse) {
		t.Fatalf("duplicate open: %v", err)
	}
}

// TestMuxUnderlyingCloseFailsAllStreams: a mid-protocol close of the
// base conn must surface on every stream, labeled.
func TestMuxUnderlyingCloseFailsAllStreams(t *testing.T) {
	eachTransport(t, MuxConfig{}, func(t *testing.T, ma, mb *Mux) {
		ca1, ca2 := mustOpen(t, ma, 1), mustOpen(t, ma, 2)
		mustOpen(t, mb, 1)
		mustOpen(t, mb, 2)
		mb.Close()
		for _, c := range []Conn{ca1, ca2} {
			if _, err := c.Recv(); err == nil {
				t.Fatal("recv succeeded after peer session close")
			} else {
				var se *StreamError
				if !errors.As(err, &se) {
					t.Fatalf("unlabeled error: %v", err)
				}
			}
		}
	})
}

// TestMuxEarlyDataBuffered: data arriving before the local Open is
// delivered once the stream is opened.
func TestMuxEarlyDataBuffered(t *testing.T) {
	ma, mb := muxPair(MuxConfig{})
	defer ma.Close()
	defer mb.Close()
	ca := mustOpen(t, ma, 9)
	if err := ca.Send([]byte("early")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let it arrive pre-open
	cb := mustOpen(t, mb, 9)
	got, err := cb.Recv()
	if err != nil || string(got) != "early" {
		t.Fatalf("early data: %q, %v", got, err)
	}
}

// TestMuxSessionStatsOverhead: control traffic (credits) is accounted
// separately from payload stats.
func TestMuxSessionStatsOverhead(t *testing.T) {
	const n = queueCap
	ma, mb := muxPair(MuxConfig{})
	defer ma.Close()
	defer mb.Close()
	ca, cb := mustOpen(t, ma, 1), mustOpen(t, mb, 1)
	for i := 0; i < n; i++ {
		if err := ca.Send([]byte("pp")); err != nil {
			t.Fatal(err)
		}
		if _, err := cb.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if bst := mb.SessionStats(); bst.ControlMsgsSent != 2 {
		t.Fatalf("%d credit frames for a full window drained, want 2", bst.ControlMsgsSent)
	}
	ast := ma.SessionStats()
	if ast.Data.BytesSent != 2*n || ast.Data.MessagesSent != n {
		t.Fatalf("payload rollup wrong: %+v", ast.Data)
	}
	if ast.OverheadBytesSent != n*muxHeaderSize {
		t.Fatalf("overhead bytes: %d want %d", ast.OverheadBytesSent, n*muxHeaderSize)
	}
}

// TestMuxTCPFramesWithoutCopy pins the mux's send path over TCP: a
// frame's header and payload go to the conn's writer apart, so a run of
// 256 KiB messages through a stream allocates per message what the bare
// conn does (the receiving end's buffer) plus far less than a payload; a
// sender that joins header and payload first adds a whole one.
func TestMuxTCPFramesWithoutCopy(t *testing.T) {
	const n, size = 16, 256 << 10
	perMessage := func(send, recv Conn) float64 {
		msgs := make([][]byte, n)
		for i := range msgs {
			msgs[i] = make([]byte, size)
			msgs[i][i] = byte(i + 1)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, msg := range msgs {
			if err := send.Send(msg); err != nil {
				t.Fatal(err)
			}
			got, err := recv.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != size || got[i] != byte(i+1) {
				t.Fatalf("message %d: %d bytes, byte %d = %d", i, len(got), i, got[i])
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	a, b := tcpPair(t)
	bare := perMessage(a, b)
	ma, mb := NewMux(a, MuxConfig{}), NewMux(b, MuxConfig{})
	defer ma.Close()
	defer mb.Close()
	if muxed := perMessage(mustOpen(t, ma, 1), mustOpen(t, mb, 1)); muxed > bare+size/2 {
		t.Fatalf("%.0f B allocated per %d B message through the mux, %.0f B on the bare conn", muxed, size, bare)
	}
}

// rawMux returns a Mux over one end of a pipe and the other end bare, so
// a test can speak the frame protocol as the peer.
func rawMux() (*Mux, Conn) {
	a, b := Pair()
	return NewMux(a, MuxConfig{}), b
}

func frame(typ byte, id uint32, payload []byte) []byte {
	buf := make([]byte, muxHeaderSize+len(payload))
	buf[0] = typ
	binary.LittleEndian.PutUint32(buf[1:], id)
	copy(buf[muxHeaderSize:], payload)
	return buf
}

// syncPeer sends a ping from the bare peer and reads until the pong:
// frames reach the Mux in order, so every earlier frame has been handled
// by then. It returns early if the Mux closes the conn.
func syncPeer(peer Conn) {
	if peer.Send(frame(muxPing, 0, nil)) != nil {
		return
	}
	for {
		buf, err := peer.Recv()
		if err != nil || buf[0] == muxPong {
			return
		}
	}
}

// muxRecords returns how many stream records m holds and how many ids
// above its floor the opened-id set keeps.
func muxRecords(m *Mux) (records, ids int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.streams), len(m.opened.above)
}

// TestMuxReleasesClosedStreams runs many open/use/close cycles, each
// followed by late data and a close frame from the peer: no stream record
// and no opened id above the floor survives, nothing fails, reusing an
// id is still refused, and SessionStats keeps the released streams'
// traffic.
func TestMuxReleasesClosedStreams(t *testing.T) {
	const cycles = 2000
	m, peer := rawMux()
	defer m.Close()
	for id := uint32(0); id < cycles; id++ {
		c := mustOpen(t, m, id)
		if err := peer.Send(frame(muxData, id, []byte("x"))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := c.Send([]byte("yy")); err != nil {
			t.Fatal(err)
		}
		c.Close()
		peer.Send(frame(muxData, id, []byte("late")))
		peer.Send(frame(muxClose, id, nil))
	}
	syncPeer(peer)
	if err := m.Err(); err != nil {
		t.Fatalf("late frames for released streams failed the session: %v", err)
	}
	if records, ids := muxRecords(m); records != 0 || ids != 0 {
		t.Fatalf("after %d closed streams: %d records, %d ids above the floor; want 0 and 0", cycles, records, ids)
	}
	st := m.SessionStats()
	if st.Streams != cycles || st.OpenStreams != 0 ||
		st.Data.BytesReceived != cycles || st.Data.BytesSent != 2*cycles || st.Data.Rounds != cycles {
		t.Fatalf("session stats after release: %+v", st)
	}
	if _, err := m.Open(cycles / 2); !errors.Is(err, ErrStreamInUse) {
		t.Fatalf("reopening a released id: %v, want ErrStreamInUse", err)
	}
}

// TestMuxBoundsUnopenedStreams: frames for ids not opened here are
// buffered in at most queueCap records, and an Open delivers its early
// data; a frame for one more such id fails the session with ErrProtocol
// and the records go with it.
func TestMuxBoundsUnopenedStreams(t *testing.T) {
	m, peer := rawMux()
	defer m.Close()
	for i := uint32(0); i < queueCap; i++ {
		peer.Send(frame(muxData, 1000+i, []byte{byte(i)}))
	}
	syncPeer(peer)
	if err := m.Err(); err != nil {
		t.Fatalf("%d buffered streams failed the session: %v", queueCap, err)
	}
	c := mustOpen(t, m, 1000)
	if got, err := c.Recv(); err != nil || got[0] != 0 {
		t.Fatalf("early data: %v, %v", got, err)
	}
	// The opened stream no longer counts against the bound.
	peer.Send(frame(muxData, 2000, nil))
	syncPeer(peer)
	if err := m.Err(); err != nil {
		t.Fatalf("session failed within the bound: %v", err)
	}
	peer.Send(frame(muxData, 2001, nil))
	select {
	case <-m.Done():
	case <-time.After(5 * time.Second):
		records, _ := muxRecords(m)
		t.Fatalf("%d unopened streams did not fail the session (%d records)", queueCap+1, records)
	}
	if err := m.Err(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("session error %v, want ErrProtocol", err)
	}
	if records, _ := muxRecords(m); records != 0 {
		t.Fatalf("%d records after the session failed", records)
	}
}

// TestRecvWaitCountsBlockedReceives checks the Recv-wait clock on every
// conn that keeps one — the pipe, TCP and a mux stream over each — and
// through the context and fault wrappers: a Recv that waits for a
// delayed Send adds at least the delay, a Send adds nothing, and the
// wait leaves Stats as it was.
func TestRecvWaitCountsBlockedReceives(t *testing.T) {
	const delay = 20 * time.Millisecond
	check := func(t *testing.T, a, b Conn) {
		t.Helper()
		w0, s0 := RecvWait(b), b.Stats()
		go func() {
			time.Sleep(delay)
			a.Send([]byte{1, 2, 3})
		}()
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
		if w := RecvWait(b) - w0; w < delay {
			t.Fatalf("Recv waited ≥ %v but RecvWait grew %v", delay, w)
		}
		if s := b.Stats(); s.MessagesRecv != s0.MessagesRecv+1 || s.BytesReceived != s0.BytesReceived+3 {
			t.Fatalf("stats %+v after one 3-byte message on %+v", s, s0)
		}
		sent := RecvWait(b)
		if err := b.Send([]byte{4}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Recv(); err != nil {
			t.Fatal(err)
		}
		if RecvWait(b) != sent {
			t.Fatal("a Send moved the Recv-wait clock")
		}
	}
	t.Run("pipe", func(t *testing.T) {
		a, b := Pair()
		defer a.Close()
		defer b.Close()
		check(t, a, b)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cb, release := WithContext(ctx, InjectFaults(b))
		defer release()
		check(t, a, cb)
	})
	t.Run("tcp", func(t *testing.T) {
		a, b := tcpPair(t)
		defer a.Close()
		defer b.Close()
		check(t, a, b)
	})
	t.Run("mux", func(t *testing.T) {
		eachTransport(t, MuxConfig{}, func(t *testing.T, ma, mb *Mux) {
			check(t, mustOpen(t, ma, 1), mustOpen(t, mb, 1))
		})
	})
	if RecvWait(struct{ Conn }{}) != 0 {
		t.Fatal("a conn without a wait clock must read 0")
	}
}
