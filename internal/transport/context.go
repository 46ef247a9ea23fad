package transport

import (
	"context"
	"sync"
	"time"
)

// WithContext wraps c so that Send/Recv fail once ctx is cancelled or
// its deadline passes. Cancellation unblocks in-flight operations by
// closing the underlying conn (the only portable way to interrupt a
// blocked read), so a cancelled conn is not reusable — but the wrapper
// itself can be discarded without disturbing c: the returned release
// function detaches the watcher and must be called when the scope that
// owns the ctx ends. After cancellation, Send/Recv report ctx.Err()
// rather than the ErrClosed the underlying conn produces, so callers
// can distinguish deliberate cancellation from a peer failure.
//
// A background context (no Done channel) adds no overhead: c itself is
// returned along with a no-op release.
func WithContext(ctx context.Context, c Conn) (Conn, func()) {
	if ctx == nil || ctx.Done() == nil {
		return c, func() {}
	}
	w := &ctxConn{ctx: ctx, c: c, stop: make(chan struct{})}
	go func() {
		select {
		case <-ctx.Done():
			// A release that happened before the cancellation wins: the
			// scope ended cleanly and the conn stays usable.
			select {
			case <-w.stop:
			default:
				c.Close()
			}
		case <-w.stop:
		}
	}()
	return w, w.release
}

type ctxConn struct {
	ctx  context.Context
	c    Conn
	stop chan struct{}
	once sync.Once
}

func (w *ctxConn) release() { w.once.Do(func() { close(w.stop) }) }

// mapErr attributes errors observed after cancellation to the context:
// the watcher closed the conn, so the underlying ErrClosed is an
// artifact of the cancellation, not a transport failure.
func (w *ctxConn) mapErr(err error) error {
	if cerr := w.ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

func (w *ctxConn) Send(data []byte) error {
	if err := w.ctx.Err(); err != nil {
		return err
	}
	if err := w.c.Send(data); err != nil {
		return w.mapErr(err)
	}
	return nil
}

func (w *ctxConn) Recv() ([]byte, error) {
	if err := w.ctx.Err(); err != nil {
		return nil, err
	}
	msg, err := w.c.Recv()
	if err != nil {
		return nil, w.mapErr(err)
	}
	return msg, nil
}

func (w *ctxConn) Stats() Stats { return w.c.Stats() }

func (w *ctxConn) RecvWait() time.Duration { return RecvWait(w.c) }
func (w *ctxConn) Close() error {
	w.release()
	return w.c.Close()
}
