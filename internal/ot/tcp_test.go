package ot

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"secyan/internal/transport"
)

// tcpPair returns two framed transport.Conns joined by a real loopback
// TCP socket.
func tcpPair(t *testing.T) (transport.Conn, transport.Conn) {
	t.Helper()
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
	a := transport.NewConn(server)
	b := transport.NewConn(client)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

// TestBaseOTOverTCP runs the elliptic-curve base OT over a real socket
// instead of the in-memory pipe.
func TestBaseOTOverTCP(t *testing.T) {
	a, b := tcpPair(t)
	rng := rand.New(rand.NewSource(11))
	choices := make([]bool, 8)
	for i := range choices {
		choices[i] = rng.Intn(2) == 1
	}
	pairs, got := runBaseOT(t, a, b, choices)
	checkBaseOT(t, pairs, got, choices)
}

// TestBaseOTCloseMidProtocol closes the base-OT receiver's socket after
// the setup point went out, while the sender is blocked waiting for the
// receiver's points, and requires transport.ErrClosed rather than a
// hang or a raw network error.
func TestBaseOTCloseMidProtocol(t *testing.T) {
	a, b := tcpPair(t)
	done := make(chan error, 1)
	go func() {
		_, err := BaseSend(a, 8)
		done <- err
	}()
	if _, err := b.Recv(); err != nil {
		t.Fatalf("setup point: %v", err)
	}
	b.Close()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("BaseSend returned %v, want transport.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("BaseSend hung after peer close")
	}
}

// TestExtensionOverTCP runs full IKNP setup plus two extension batches
// over a real socket, crossing both pad() branches.
func TestExtensionOverTCP(t *testing.T) {
	a, b := tcpPair(t)

	var snd *Sender
	setup := make(chan error, 1)
	go func() {
		var err error
		snd, err = NewSender(a)
		setup <- err
	}()
	rcv, err := NewReceiver(b)
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	if err := <-setup; err != nil {
		t.Fatalf("NewSender: %v", err)
	}

	rng := rand.New(rand.NewSource(5))
	for _, cfg := range []struct{ m, msgLen int }{{100, 16}, {65, 40}} {
		pairs := make([][2][]byte, cfg.m)
		choices := make([]bool, cfg.m)
		for j := range pairs {
			pairs[j][0] = make([]byte, cfg.msgLen)
			pairs[j][1] = make([]byte, cfg.msgLen)
			rng.Read(pairs[j][0])
			rng.Read(pairs[j][1])
			choices[j] = rng.Intn(2) == 1
		}
		sendErr := make(chan error, 1)
		go func() { sendErr <- snd.Send(pairs) }()
		got, err := rcv.Receive(choices, cfg.msgLen)
		if err != nil {
			t.Fatalf("Receive: %v", err)
		}
		if err := <-sendErr; err != nil {
			t.Fatalf("Send: %v", err)
		}
		for j := range got {
			want := pairs[j][0]
			if choices[j] {
				want = pairs[j][1]
			}
			if !bytes.Equal(got[j], want) {
				t.Fatalf("m=%d msgLen=%d: message %d mismatch", cfg.m, cfg.msgLen, j)
			}
		}
	}
}

// TestCloseMidProtocolReturnsErrClosed closes the sender's socket while
// the receiver is blocked mid-extension and requires the receiver to
// fail promptly with transport.ErrClosed rather than hang or surface a
// raw network error.
func TestCloseMidProtocolReturnsErrClosed(t *testing.T) {
	a, b := tcpPair(t)

	var snd *Sender
	setup := make(chan error, 1)
	go func() {
		var err error
		snd, err = NewSender(a)
		setup <- err
	}()
	rcv, err := NewReceiver(b)
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	if err := <-setup; err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	_ = snd

	// The receiver sends its matrix and then blocks waiting for
	// ciphertexts that never come: the peer closes instead of Send-ing.
	recvDone := make(chan error, 1)
	go func() {
		_, err := rcv.Receive(make([]bool, 64), 16)
		recvDone <- err
	}()
	// Let the receiver get into its blocking Recv, then tear down.
	time.Sleep(20 * time.Millisecond)
	a.Close()

	select {
	case err := <-recvDone:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Receive returned %v, want transport.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Receive hung after peer close")
	}

	// The local endpoint is closed explicitly too: later calls must also
	// report ErrClosed immediately.
	b.Close()
	if err := b.Send([]byte{1}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send on closed conn returned %v, want transport.ErrClosed", err)
	}
	if _, err := b.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Recv on closed conn returned %v, want transport.ErrClosed", err)
	}
}
