package daemon

import (
	"encoding/json"
	"fmt"
	"sync"

	"secyan/internal/transport"
)

// Control protocol: JSON messages over logical stream 0 of the
// client's session, leaving every other stream id free for protocol
// executions. The daemon allocates query stream ids (monotonically
// from 1) and tells the client which to open, so concurrent queries
// from one client pair deterministically.
//
//	client → daemon   hello{tenant, proto, ring_bits}
//	daemon → client   welcome{proto, ring_bits}   | error{code, detail}
//	client → daemon   query{id, name, backend, deadline_ms}
//	daemon → client   warm{id, name, stream}          (the query will
//	                  wait: co-run Precompute for name on stream)
//	daemon → client   admitted{id, stream, warm}      (run on stream;
//	                  warm reports whether the warm pass is consumable)
//	daemon → client   rejected{id, code, detail}      (typed shedding —
//	                  the connection stays open)
//	client → daemon   bye{}
//
// The query results never ride this channel: the client is Alice and
// receives them from its own protocol execution on the query stream.
// Every message is at most maxCtrlMsg bytes; a longer one is a
// *transport.SizeError before anything is decoded.

// protoVersion is the control protocol version; both ends must match.
const protoVersion = 1

// ctrlStream is the logical stream id of the control channel.
const ctrlStream = 0

// maxCtrlMsg bounds a control message. The largest legitimate one, a
// rejection carrying an error's text, is a few hundred bytes.
const maxCtrlMsg = 4096

// Message type tags.
const (
	msgHello    = "hello"
	msgWelcome  = "welcome"
	msgError    = "error"
	msgQuery    = "query"
	msgWarm     = "warm"
	msgAdmitted = "admitted"
	msgRejected = "rejected"
	msgBye      = "bye"
)

// ctrlMsg is the one wire struct of the control protocol; Type selects
// which fields are meaningful.
type ctrlMsg struct {
	Type string `json:"type"`

	// hello / welcome / error
	Proto    int    `json:"proto,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	RingBits int    `json:"ring_bits,omitempty"`

	// query / warm / admitted / rejected: ID is the client-chosen
	// request id every daemon reply echoes.
	ID         uint64 `json:"id,omitempty"`
	Name       string `json:"name,omitempty"`
	Backend    string `json:"backend,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`

	// warm / admitted
	Stream uint32 `json:"stream,omitempty"`
	Warm   bool   `json:"warm,omitempty"`

	// rejected / error
	Code   string `json:"code,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// sendCtrl marshals and sends m on c under mu (the control stream has
// concurrent writers: the read loop and every query runner).
func sendCtrl(mu *sync.Mutex, c transport.Conn, m *ctrlMsg) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	return c.Send(data)
}

// recvCtrl receives and unmarshals the next control message.
func recvCtrl(c transport.Conn) (*ctrlMsg, error) {
	data, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if len(data) > maxCtrlMsg {
		return nil, &transport.SizeError{What: "secyand: control message", Got: len(data), Want: maxCtrlMsg}
	}
	m := new(ctrlMsg)
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("secyand: malformed control message: %w", err)
	}
	return m, nil
}
