package mpc

import "time"

// StepTrace is the per-operator execution record produced by the plan
// executor in internal/core: one entry per plan step, carrying the
// step's identity (phase/op/node, mirroring the plan), its public size,
// the predicted cost, and the measured traffic and wall time scoped to
// the step via transport.Stats snapshots, with the part of that time the
// party spent blocked on the peer (transport.RecvWait). It lives in this package so
// that any layer holding a *Party can subscribe through Party.Observer
// without importing the core planner.
type StepTrace struct {
	Phase string
	Op    string
	Node  string
	N     int // public size the step operates on

	EstBytes int64 // planned cost: the plan step's EstBytes
	Bytes    int64 // measured, both directions
	Messages int64 // measured, both directions
	Rounds   int64 // measured round count on this party's side
	Elapsed  time.Duration
	// Blocked is the part of Elapsed this party's receives spent
	// waiting for the peer's messages; Elapsed − Blocked is its own
	// work.
	Blocked time.Duration
}
