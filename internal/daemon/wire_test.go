package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/transport"
)

// FuzzControlMessage feeds arbitrary bytes to the control protocol.
// recvCtrl must return a message or a typed error (a *transport.SizeError
// past maxCtrlMsg, a JSON syntax or type error otherwise) and never
// panic. Sent to a daemon as the hello, anything but a valid hello must
// get an error reply and a closed connection, and the daemon's handler
// must return once the client is gone.
func FuzzControlMessage(f *testing.F) {
	q := testQuery(43, 4, 6)
	dcat, _ := sideCatalogs("example", q)
	d, err := New(Config{Catalog: dcat, Tenants: map[string]Quota{"acme": {}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { d.Shutdown(context.Background()) })
	hello, _ := json.Marshal(&ctrlMsg{Type: msgHello, Proto: protoVersion, Tenant: "acme", RingBits: d.ring.Bits})
	f.Add(hello)
	f.Add(bytes.Replace(hello, []byte("acme"), []byte("mallory"), 1))
	f.Add([]byte(`{"type":"hello","proto":1,"tenant":"acme","ring_bits":32}`))
	f.Add([]byte(`{"type":"query","id":1,"name":"example"}`))
	f.Add([]byte(`{"type":7}`))
	f.Add([]byte(`null`))
	f.Add([]byte("not json"))
	f.Add([]byte{})
	f.Add(append(hello, bytes.Repeat([]byte(" "), maxCtrlMsg)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := transport.Pair()
		if err := a.Send(data); err != nil {
			t.Fatal(err)
		}
		m, err := recvCtrl(b)
		var se *transport.SizeError
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case err == nil:
			if len(data) > maxCtrlMsg {
				t.Fatalf("accepted a %d-byte message", len(data))
			}
		case errors.As(err, &se), errors.As(err, &syn), errors.As(err, &typ):
		default:
			t.Fatalf("untyped error: %v", err)
		}

		server, client := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			d.handleConn(server)
		}()
		sess := mpc.NewSession(mpc.Alice, transport.NewConn(client), d.ring, mpc.SessionConfig{})
		defer func() {
			sess.Close()
			<-served // the daemon lets go of a departed client
		}()
		ctrl, err := sess.OpenStream(ctrlStream)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Send(data); err != nil {
			t.Fatal(err)
		}
		reply, err := recvCtrl(ctrl)
		if err != nil {
			t.Fatalf("no reply to hello %q: %v", data, err)
		}
		if m != nil && m.Type == msgHello && m.Proto == protoVersion && m.RingBits == d.ring.Bits && m.Tenant == "acme" {
			if reply.Type != msgWelcome {
				t.Fatalf("valid hello %q got %+v", data, reply)
			}
			return
		}
		if reply.Type != msgError {
			t.Fatalf("hello %q got %+v, want an error reply", data, reply)
		}
		if _, err := ctrl.Recv(); err == nil {
			t.Fatalf("connection still open after rejecting hello %q", data)
		}
	})
}

// refusedHello runs d's handler for one connection, sends h as the
// hello and returns the daemon's reply. It then checks that the daemon
// has hung up: a query sent anyway gets no answer.
func refusedHello(t *testing.T, d *Daemon, h *ctrlMsg) *ctrlMsg {
	t.Helper()
	server, client := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		d.handleConn(server)
	}()
	sess := mpc.NewSession(mpc.Alice, transport.NewConn(client), d.ring, mpc.SessionConfig{})
	defer func() {
		sess.Close()
		<-served
	}()
	ctrl, err := sess.OpenStream(ctrlStream)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	if err := sendCtrl(&mu, ctrl, h); err != nil {
		t.Fatal(err)
	}
	reply, err := recvCtrl(ctrl)
	if err != nil {
		t.Fatalf("no reply to hello %+v: %v", h, err)
	}
	sendCtrl(&mu, ctrl, &ctrlMsg{Type: msgQuery, ID: 1, Name: "example"})
	if m, err := recvCtrl(ctrl); err == nil {
		t.Fatalf("connection answered a query after hello %+v got %+v: %+v", h, reply, m)
	}
	return reply
}

// TestHelloOtherProtocolVersion sends hellos one version below and one
// above the daemon's: each gets a bad-request error naming both
// versions, and the connection then admits no query.
func TestHelloOtherProtocolVersion(t *testing.T) {
	q := testQuery(47, 4, 6)
	dcat, _ := sideCatalogs("example", q)
	d, err := New(Config{Catalog: dcat, Tenants: map[string]Quota{"acme": {}}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	for _, proto := range []int{protoVersion - 1, protoVersion + 1} {
		reply := refusedHello(t, d, &ctrlMsg{Type: msgHello, Proto: proto, Tenant: "acme", RingBits: d.ring.Bits})
		want := fmt.Sprintf("protocol version %d, want %d", proto, protoVersion)
		if reply.Type != msgError || reply.Code != codeBadRequest || reply.Detail != want {
			t.Fatalf("proto %d: hello got %+v, want a %s error %q", proto, reply, codeBadRequest, want)
		}
	}
}

// TestHelloRefusals sends the hellos that pass the version check but
// must still be refused, each with its typed code: another ring width,
// no tenant, and any hello once the daemon drains.
func TestHelloRefusals(t *testing.T) {
	q := testQuery(59, 4, 6)
	dcat, _ := sideCatalogs("example", q)
	d, err := New(Config{Catalog: dcat, DefaultQuota: &Quota{}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	hello := func(tenant string, ringBits int) *ctrlMsg {
		return &ctrlMsg{Type: msgHello, Proto: protoVersion, Tenant: tenant, RingBits: ringBits}
	}
	for _, tc := range []struct {
		name         string
		hello        *ctrlMsg
		drain        bool
		code, detail string
	}{
		{"ring mismatch", hello("acme", d.ring.Bits+1), false, codeBadRequest,
			fmt.Sprintf("ring mismatch: client %d bits, daemon %d", d.ring.Bits+1, d.ring.Bits)},
		{"empty tenant", hello("", d.ring.Bits), false, codeBadRequest, "hello needs a tenant"},
		{"draining", hello("acme", d.ring.Bits), true, codeOverloaded, "draining"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.drain {
				if err := d.Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			reply := refusedHello(t, d, tc.hello)
			if reply.Type != msgError || reply.Code != tc.code || reply.Detail != tc.detail {
				t.Fatalf("hello %+v got %+v, want a %s error %q", tc.hello, reply, tc.code, tc.detail)
			}
		})
	}
}
