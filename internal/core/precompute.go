package core

import (
	"context"
	"time"

	"secyan/internal/gc"
	"secyan/internal/mpc"
)

// This file implements the offline phase of the plan-driven
// offline/online split. PrecomputeOpts walks the same Plan the executor
// runs, but instead of executing operators it stages their expensive
// ingredients ahead of time:
//
//   - every OT batch a step declares (PlanStep.preOTs) becomes a
//     random-OT pool fill: the IKNP matrix expansion, transposition and
//     pad derivation — and the matrix transmission — happen now, and the
//     online batch derandomizes the pooled randomness with a few
//     correction bytes (internal/ot);
//   - every circuit a step declares (PlanStep.preCircs) and this party
//     garbles is built and garbled in a background goroutine,
//     overlapping the pure compute with the pool fills' network traffic;
//     RunCircuit later recognizes the staged material by shape
//     (internal/gc, internal/mpc). Circuits this party only evaluates
//     need nothing ahead of time.
//
// The online run needs no flag: the session queues and pools make the
// fast path transparent, and any divergence from the plan falls back to
// the direct protocols, which remain correct (only slower). Join-phase
// steps scale with the data-dependent output size, declare no demands,
// and always run direct.

// garbleAhead garbles, in plan order, every circuit plan declares with
// role as the garbling party. Pure compute: no network.
func garbleAhead(plan *Plan, role mpc.Role) []*gc.PreGarbled {
	var staged []*gc.PreGarbled
	for si := range plan.Steps {
		for _, d := range plan.Steps[si].preCircs {
			if d.garbler == role {
				staged = append(staged, gc.GarbleAhead(d.build()))
			}
		}
	}
	return staged
}

// PrecomputeOpts executes the offline phase of q's plan on party p:
// base-OT setup, one random-OT pool fill per planned OT batch, and
// ahead-of-time garbling of every planned circuit this party garbles. Both
// parties must call it concurrently — the offline phase has its own
// traffic — and the next protocol run on this party pair should execute
// the same query under the same opts, which then consumes the staged
// material transparently. It returns the offline trace: one TraceStep
// (Phase "offline") per plan step that did offline work, with EstBytes
// carrying the step's EstOfflineBytes, then "stage-circuits" (the wait
// for this party's ahead-of-time garbling) and "rendezvous" (the wait
// for the peer's), neither with payload bytes.
//
// Staged material is single-use and plan-shaped. Running a different
// query next is safe but wasteful: the first mismatching step drops the
// local circuit queue and OT pools fall back batch by batch. Use
// Party.ClearPrecomputed to discard staged material deliberately — on
// both parties at the same protocol point, since pooled OT batches must
// stay symmetric.
func PrecomputeOpts(ctx context.Context, p *mpc.Party, q *Query, opts Options) (*Trace, error) {
	// No Validate: the offline phase is data-independent, so q may be a
	// bare query shape (schemas, owners, sizes) with no relations
	// attached — e.g. queries.PlanFor output.
	plan, err := ExplainOpts(q, p.Ring.Bits, opts)
	if err != nil {
		return nil, err
	}
	pp, release := p.WithContext(ctx)
	defer release()

	if track := pp.Track; track != nil {
		unbind := track.Bind()
		defer unbind()
		sp := track.Begin("run", "precompute")
		defer sp.End()
	}

	// Circuit building and garbling are pure compute — no network — so
	// they run in the background, overlapping the pool fills' traffic.
	// The channel is closed when every planned circuit is staged; the
	// foreground joins before enqueueing so the queue is complete and
	// in plan order.
	var staged []*gc.PreGarbled
	done := make(chan struct{})
	go func() {
		defer close(done)
		staged = garbleAhead(plan, p.Role)
	}()

	tr := &Trace{}
	record := func(rec TraceStep) {
		tr.Steps = append(tr.Steps, rec)
		if pp.Observer != nil {
			pp.Observer(rec)
		}
	}
	// exchange runs one offline exchange and records what it moved.
	exchange := func(st *PlanStep, f func() error) error {
		before := pp.Conn.Stats()
		start := time.Now()
		err := f()
		after := pp.Conn.Stats()
		record(TraceStep{Phase: "offline", Op: st.Op, Node: st.Node, N: st.N,
			EstBytes: st.EstOfflineBytes,
			Bytes:    after.TotalBytes() - before.TotalBytes(),
			Messages: (after.MessagesSent + after.MessagesRecv) - (before.MessagesSent + before.MessagesRecv),
			Rounds:   after.Rounds - before.Rounds,
			Elapsed:  time.Since(start)})
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return stepErr(st, err)
	}
	for si := range plan.Steps {
		st := &plan.Steps[si]
		if cerr := ctx.Err(); cerr != nil {
			<-done
			return tr, stepErr(st, cerr)
		}
		// Steps without offline traffic of their own are skipped: their
		// circuits (if any) are still staged by the background build.
		work := st.kind == stepOTSetup
		for _, d := range st.preOTs {
			if d.m > 0 {
				work = true
			}
		}
		if !work {
			continue
		}
		if err := exchange(st, func() error { return ex1Offline(pp, st) }); err != nil {
			<-done
			return tr, err
		}
	}

	// Join the background staging. Base OTs are milliseconds, so the
	// pool fills usually finish first and the caller pays this wait; the
	// trace shows it as an offline step of its own.
	start := time.Now()
	<-done
	if !plan.hasCircuits() && len(tr.Steps) == 0 {
		return tr, nil // nothing to precompute, nothing to wait for
	}
	record(TraceStep{Phase: "offline", Op: "stage-circuits", N: len(staged), Elapsed: time.Since(start)})

	// Rendezvous. The parties garble different shares of the plan, so
	// one finishes staging well before the other. An empty message each
	// way (no payload bytes: every estimate stays exact) makes both
	// return together, so the online run that follows does not absorb
	// the peer's leftover garbling and the wait appears in this party's
	// trace instead of between its traces.
	err = exchange(&PlanStep{Phase: "offline", Op: "rendezvous"}, func() error {
		if err := pp.Conn.Send(nil); err != nil {
			return err
		}
		_, err := pp.Conn.Recv()
		return err
	})
	if err != nil {
		return tr, err
	}

	for _, pg := range staged {
		p.EnqueuePreGarbled(pg)
	}
	return tr, nil
}

// hasCircuits reports whether any step declares a garbled circuit, on
// either side — a property of the plan, so both parties agree on it.
func (pl *Plan) hasCircuits() bool {
	for si := range pl.Steps {
		if len(pl.Steps[si].preCircs) > 0 {
			return true
		}
	}
	return false
}

// StagedCircuits is the network-free half of a precompute pass for one
// role: every circuit a plan declares with that role garbling, built and
// garbled ahead of time with zero traffic. Unlike PrecomputeOpts it
// involves only this process — garbling is data-independent pure compute
// and the wire format follows the OT pools, never the staged queue, so
// one side may stage alone without any cross-party agreement. Without
// pools only the circuits that have no evaluator inputs are served from
// the stage; the rest are dropped for a direct garble (mpc.RunCircuit).
// The daemon's precompute farm builds these in the background against
// predicted query shapes.
//
// Staged material is single-use: Attach hands it to exactly one Party
// about to execute the same plan shape.
type StagedCircuits struct {
	role   mpc.Role
	digest uint64
	staged []*gc.PreGarbled
}

// PrepareCircuits compiles q's plan (shape only — q needs no relations)
// under opts and garbles every declared circuit role garbles. It returns
// nil when there is none.
func PrepareCircuits(q *Query, ringBits int, role mpc.Role, opts Options) (*StagedCircuits, error) {
	plan, err := ExplainOpts(q, ringBits, opts)
	if err != nil {
		return nil, err
	}
	staged := garbleAhead(plan, role)
	if len(staged) == 0 {
		return nil, nil
	}
	return &StagedCircuits{role: role, digest: plan.Digest(), staged: staged}, nil
}

// Len returns the number of staged circuits.
func (sc *StagedCircuits) Len() int {
	if sc == nil {
		return 0
	}
	return len(sc.staged)
}

// Digest returns the shape digest of the plan the circuits were staged
// for.
func (sc *StagedCircuits) Digest() uint64 {
	if sc == nil {
		return 0
	}
	return sc.digest
}

// Attach enqueues the staged circuits onto p's precomputed-circuit
// queue, in plan order. p must have the staging role and be about to
// run the same plan shape; a mismatched run falls back to the direct
// protocols (dropping the queue), which stays correct. Attach consumes
// the material — a second call is a no-op.
func (sc *StagedCircuits) Attach(p *mpc.Party) {
	if sc == nil || p.Role != sc.role {
		return
	}
	for _, pg := range sc.staged {
		p.EnqueuePreGarbled(pg)
	}
	sc.staged = nil
}

// ex1Offline performs one step's offline work: establishing the base-OT
// session for setup steps, and one pool fill per declared OT batch
// otherwise. Both parties walk identical plans, so the fills proceed in
// lockstep (a fill is half a round: the receiver sends its correction
// matrix, the sender only receives).
func ex1Offline(pp *mpc.Party, st *PlanStep) error {
	if st.kind == stepOTSetup {
		if pp.Role == st.sender {
			_, err := pp.OTSender()
			return err
		}
		_, err := pp.OTReceiver()
		return err
	}
	for _, d := range st.preOTs {
		if d.m <= 0 {
			continue
		}
		if d.sender == pp.Role {
			snd, err := pp.OTSender()
			if err != nil {
				return err
			}
			if err := snd.FillRandom(d.m, d.msgLen); err != nil {
				return err
			}
		} else {
			rcv, err := pp.OTReceiver()
			if err != nil {
				return err
			}
			if err := rcv.FillRandom(d.m, d.msgLen); err != nil {
				return err
			}
		}
	}
	return nil
}
