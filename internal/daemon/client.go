package daemon

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/relation"
	"secyan/internal/share"
	"secyan/internal/transport"
)

// Client is one tenant's connection to a secyand daemon. It plays
// Alice: query results come out of the client's own protocol
// executions, never the control channel. Run is safe for concurrent
// use — each query gets its own logical stream.
type Client struct {
	sess    *mpc.Session
	ctrl    transport.Conn
	sendMu  sync.Mutex
	tenant  string
	catalog Catalog
	ring    share.Ring

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan *ctrlMsg
	readErr error
}

// ClientConfig tunes Dial; the zero value works against a
// default-configured daemon.
type ClientConfig struct {
	// Ring must match the daemon's (zero means share.DefaultRing).
	Ring share.Ring
	// Heartbeat configures the session transport.
	Heartbeat time.Duration
}

// Dial connects to a daemon at addr, introduces tenant, and returns a
// ready client. catalog must hold shape-identical entries for every
// query name the client will run.
func Dial(addr, tenant string, catalog Catalog, cfg ClientConfig) (*Client, error) {
	nc, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	ring := cfg.Ring.OrDefault()
	sess := mpc.NewSession(mpc.Alice, nc, ring, mpc.SessionConfig{
		Heartbeat: cfg.Heartbeat,
		SID:       obs.NextSessionID(),
	})
	ctrl, err := sess.OpenStream(ctrlStream)
	if err != nil {
		sess.Close()
		return nil, err
	}
	c := &Client{
		sess:    sess,
		ctrl:    ctrl,
		tenant:  tenant,
		catalog: catalog,
		ring:    ring,
		pending: map[uint64]chan *ctrlMsg{},
	}
	if err := sendCtrl(&c.sendMu, ctrl, &ctrlMsg{
		Type: msgHello, Proto: protoVersion, Tenant: tenant, RingBits: ring.Bits,
	}); err != nil {
		sess.Close()
		return nil, err
	}
	m, err := recvCtrl(ctrl)
	if err != nil {
		sess.Close()
		return nil, fmt.Errorf("secyand: no welcome: %w", err)
	}
	if m.Type != msgWelcome {
		sess.Close()
		if m.Type == msgError {
			return nil, &RejectedError{Tenant: tenant, Code: m.Code, Detail: m.Detail}
		}
		return nil, fmt.Errorf("secyand: unexpected %q instead of welcome", m.Type)
	}
	go c.readLoop()
	return c, nil
}

// readLoop dispatches daemon replies to the Run that requested them.
func (c *Client) readLoop() {
	for {
		m, err := recvCtrl(c.ctrl)
		if err != nil {
			c.mu.Lock()
			if c.readErr == nil {
				c.readErr = err
			}
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch := c.pending[m.ID]
		c.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	}
}

// connErr is the error a Run reports when the control channel died.
func (c *Client) connErr() error {
	if err := c.sess.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return fmt.Errorf("secyand: connection closed")
}

// RunSpec names one query execution against the daemon.
type RunSpec struct {
	// Name selects the catalog entry (must exist on both ends).
	Name string
	// Deadline bounds the query's wall time on the daemon (and is a
	// good idea on ctx too).
	Deadline time.Duration
}

// Run executes one named query through the daemon and returns its
// revealed result rows. Shed queries return typed errors:
// errors.Is(err, ErrOverloaded / ErrQuotaExceeded). Run blocks through
// admission (including a cooperative warm pass if the daemon asks for
// one) and the protocol execution itself.
func (c *Client) Run(ctx context.Context, spec RunSpec) (*relation.Relation, error) {
	runner, ok := c.catalog[spec.Name]
	if !ok {
		return nil, fmt.Errorf("secyand: query %q not in client catalog", spec.Name)
	}
	shape, err := runner.Shape()
	if err != nil {
		return nil, err
	}

	id := c.nextID.Add(1)
	ch := make(chan *ctrlMsg, 4)
	c.mu.Lock()
	if c.readErr != nil {
		c.mu.Unlock()
		return nil, c.connErr()
	}
	c.pending[id] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}()

	if err := sendCtrl(&c.sendMu, c.ctrl, &ctrlMsg{
		Type: msgQuery, ID: id, Name: spec.Name,
		DeadlineMS: spec.Deadline.Milliseconds(),
	}); err != nil {
		return nil, err
	}

	// Admission dialogue: an optional warm, then admitted or rejected.
	var warmParty *mpc.Party
	var warmStream uint32
	dropWarm := func() {
		if warmParty != nil {
			warmParty.Conn.Close()
			warmParty = nil
		}
	}
	defer dropWarm()
	for {
		var m *ctrlMsg
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case m = <-ch:
		}
		if m == nil {
			return nil, c.connErr()
		}
		switch m.Type {
		case msgWarm:
			// Co-run the offline phase on the assigned stream while the
			// query waits for a slot; the daemon runs its half
			// concurrently and sends admitted when both are done.
			p, err := c.sess.PartyOn(m.Stream)
			if err != nil {
				continue // daemon's half fails too; it falls back
			}
			p.Tag.Tenant = c.tenant
			if _, err := core.PrecomputeOpts(ctx, p, shape, core.Options{}); err != nil {
				p.Conn.Close()
				continue
			}
			warmParty, warmStream = p, m.Stream

		case msgRejected:
			return nil, &RejectedError{Tenant: c.tenant, Query: spec.Name, Code: m.Code, Detail: m.Detail}

		case msgAdmitted:
			var p *mpc.Party
			if m.Warm && warmParty != nil && warmStream == m.Stream {
				p, warmParty = warmParty, nil
			} else {
				dropWarm()
				var err error
				p, err = c.sess.PartyOn(m.Stream)
				if err != nil {
					return nil, err
				}
				p.Tag.Tenant = c.tenant
			}
			defer p.Conn.Close()
			return runner.Run(ctx, p, core.Options{})

		default:
			return nil, fmt.Errorf("secyand: unexpected control message %q", m.Type)
		}
	}
}

// Close says goodbye and tears the session down.
func (c *Client) Close() error {
	sendCtrl(&c.sendMu, c.ctrl, &ctrlMsg{Type: msgBye})
	return c.sess.Close()
}
