package obs

import "sync"

// ring retains the newest len(buf) values put into it: the storage of
// both the event log and the flight recorder.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int // slot the next put writes
	n    int // values retained, at most len(buf)
}

// resize discards the retained values and makes room for n (at least 1).
func (r *ring[T]) resize(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf, r.next, r.n = make([]T, max(n, 1)), 0, 0
}

// clear discards the retained values, keeping the capacity.
func (r *ring[T]) clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.buf)
	r.next, r.n = 0, 0
}

// put retains v, evicting the oldest value once the ring is full.
func (r *ring[T]) put(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.n = min(r.n+1, len(r.buf))
}

// recent returns up to max retained values, newest first (max <= 0
// returns all). The slice is never nil, so JSON encodes it as [] when
// empty.
func (r *ring[T]) recent(max int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if max <= 0 || max > r.n {
		max = r.n
	}
	out := make([]T, max)
	for i := range out {
		out[i] = r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
	}
	return out
}
