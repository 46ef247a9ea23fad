package obs

import "sync/atomic"

// Independent registries and event logs with their own, enabled switch,
// so tests neither collide in the process-wide instances nor depend on
// the process switch.

func NewRegistry() *Registry {
	r := &Registry{on: &atomic.Bool{}}
	r.on.Store(true)
	return r
}

func (r *Registry) NewCounter(name, help string, keys ...string) *Metric {
	return r.register("counter", name, help, keys)
}

func (r *Registry) NewGauge(name, help string, keys ...string) *Metric {
	return r.register("gauge", name, help, keys)
}

func (r *Registry) NewHistogram(name, help string, keys ...string) *Metric {
	return r.register("histogram", name, help, keys)
}

func NewLogger(ringSize int) *Logger {
	l := newLogger(&atomic.Bool{}, ringSize)
	l.on.Store(true)
	return l
}
