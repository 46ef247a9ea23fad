package transport

import (
	"net"
	"sync"
	"testing"

	"secyan/internal/obs"
	"secyan/internal/parallel"
)

// raceHammer drives one sender and one receiver (the concurrency the
// Conn contract promises) across a connection while extra goroutines
// hammer Stats on both endpoints, with metrics collection
// enabled and payloads produced under the parallel worker pool. Run
// under -race (see `make race`) this catches unsynchronized access to
// the per-connection counters, the process-wide obs counters, and the
// pool's occupancy accounting.
func raceHammer(t *testing.T, a, b Conn) {
	t.Helper()
	obs.Enable()
	defer obs.Disable()

	const msgs = 200
	const msgLen = 1 << 10

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, c := range []Conn{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = c.Stats().TotalBytes()
				}
			}
		}()
	}

	recvErr := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if _, err := b.Recv(); err != nil {
				recvErr <- err
				return
			}
		}
		recvErr <- nil
	}()

	buf := make([]byte, msgLen)
	for i := 0; i < msgs; i++ {
		// Fill the payload under the worker pool so pool metrics update
		// concurrently with the stats hammer.
		parallel.For(msgLen, 64, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				buf[j] = byte(i + j)
			}
		})
		if err := a.Send(buf); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := <-recvErr; err != nil {
		t.Fatalf("recv: %v", err)
	}
	close(stop)
	wg.Wait()
	if got := a.Stats().BytesSent; got != msgs*msgLen {
		t.Fatalf("sender counted %d bytes, want %d", got, msgs*msgLen)
	}
	if got := b.Stats().BytesReceived; got != msgs*msgLen {
		t.Fatalf("receiver counted %d bytes, want %d", got, msgs*msgLen)
	}
}

// TestStatsRacePipe hammers the in-memory pipe transport.
func TestStatsRacePipe(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	raceHammer(t, a, b)
}

// TestStatsRaceTCP hammers the TCP transport over loopback.
func TestStatsRaceTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	acc := make(chan net.Conn, 1)
	accErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		accErr <- err
		acc <- c
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := <-accErr; err != nil {
		t.Fatalf("accept: %v", err)
	}
	server := <-acc
	a, b := NewConn(server), NewConn(client)
	defer a.Close()
	defer b.Close()
	raceHammer(t, a, b)
}
