package transport

// Fault injection for robustness testing: a deterministic wrapper that
// perturbs a Conn at chosen points — dropping a message, delaying it,
// truncating it (a partial write cut off by connection loss), or
// closing the connection mid-protocol. The injection schedule is either
// explicit (exact message indices, for matrix tests that target one
// protocol phase at a time) or derived from a seed (for soak tests that
// want varied but reproducible chaos).

import (
	"encoding/binary"
	"sync"
	"time"

	"secyan/internal/prf"
)

// FaultMode selects what happens to the targeted message.
type FaultMode int

const (
	// FaultNone leaves the message alone.
	FaultNone FaultMode = iota
	// FaultDrop silently discards the message: the sender believes it
	// was delivered, the receiver never sees it. On a session with
	// deadlines or heartbeats this surfaces as a timeout.
	FaultDrop
	// FaultDelay delivers the message after Fault.Delay.
	FaultDelay
	// FaultPartial delivers a truncated prefix of the message and then
	// closes the connection — a write interrupted by connection loss.
	FaultPartial
	// FaultClose closes the connection instead of sending.
	FaultClose
)

// String names the mode for test output.
func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultPartial:
		return "partial-write"
	case FaultClose:
		return "close"
	}
	return "unknown"
}

// Fault schedules one injection: the AtSend-th Send (1-based) on the
// wrapped conn is subjected to Mode.
type Fault struct {
	AtSend int
	Mode   FaultMode
	// Delay applies to FaultDelay (default 10ms when zero).
	Delay time.Duration
}

// faultConn applies a fault schedule to the send side of a Conn.
type faultConn struct {
	Conn
	mu     sync.Mutex
	faults []Fault
	sends  int
}

// InjectFaults wraps c so that the scheduled faults fire on its Send
// path. Recv, Stats and Close pass through. The wrapper counts payload
// traffic exactly like the underlying conn (a dropped message is still
// counted as sent, matching what the faulty endpoint believes).
func InjectFaults(c Conn, faults ...Fault) Conn {
	return &faultConn{Conn: c, faults: faults}
}

// SeededFaults derives a reproducible schedule of n faults over the
// first span sends from seed: same seed, same chaos. Modes cycle
// through drop, delay, partial write and close; send indices are drawn
// without replacement so no message is hit twice. It is a fault
// injector for tests, the root package's included.
func SeededFaults(seed uint64, n, span int) []Fault {
	var s prf.Seed
	binary.LittleEndian.PutUint64(s[:], seed)
	g := prf.NewPRG(s)
	if span < 1 {
		span = 1
	}
	used := make(map[int]bool)
	modes := []FaultMode{FaultDrop, FaultDelay, FaultPartial, FaultClose}
	var fs []Fault
	for len(fs) < n && len(used) < span {
		at := int(g.Uint64()%uint64(span)) + 1
		if used[at] {
			continue
		}
		used[at] = true
		fs = append(fs, Fault{
			AtSend: at,
			Mode:   modes[len(fs)%len(modes)],
			Delay:  time.Duration(1+g.Uint64()%10) * time.Millisecond,
		})
	}
	return fs
}

func (f *faultConn) Send(data []byte) error {
	f.mu.Lock()
	f.sends++
	fault := Fault{Mode: FaultNone}
	for _, fl := range f.faults {
		if fl.AtSend == f.sends {
			fault = fl
			break
		}
	}
	f.mu.Unlock()
	switch fault.Mode {
	case FaultDrop:
		return nil
	case FaultDelay:
		d := fault.Delay
		if d == 0 {
			d = 10 * time.Millisecond
		}
		time.Sleep(d)
		return f.Conn.Send(data)
	case FaultPartial:
		cut := len(data) / 2
		err := f.Conn.Send(data[:cut])
		f.Conn.Close()
		if err != nil {
			return err
		}
		return ErrClosed
	case FaultClose:
		f.Conn.Close()
		return ErrClosed
	default:
		return f.Conn.Send(data)
	}
}
