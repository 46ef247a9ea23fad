package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
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
	q, rels := testQuery(43, 4, 6)
	dcat, _ := sideCatalogs("example", q, rels)
	d, err := New(Config{Catalog: dcat, Tenants: map[string]Quota{"acme": {}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { d.Shutdown(context.Background()) })
	hello, _ := json.Marshal(&ctrlMsg{Type: msgHello, Proto: protoVersion, Tenant: "acme", RingBits: d.ring.Bits})
	f.Add(hello)
	f.Add(bytes.Replace(hello, []byte("acme"), []byte("mallory"), 1))
	f.Add([]byte(`{"type":"hello","proto":2,"tenant":"acme","ring_bits":32}`))
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
		ctrl, err := sess.OpenStream(ctrlStream, mpc.PartyOpts{})
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
