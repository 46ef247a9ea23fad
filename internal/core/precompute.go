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
//   - every extension batch a step declares (an OT batch, or a circuit's
//     label batch; see exchange) becomes a random-OT pool fill: the
//     chunk expansion, transposition and pad derivation — and the
//     receiver's correction message — happen now, and the online batch
//     derandomizes the pooled randomness with a few correction bytes
//     (internal/ot);
//   - every circuit a step declares and this party garbles is built and
//     garbled in a background goroutine, overlapping the pure compute
//     with the pool fills' network traffic;
//     RunCircuit later recognizes the staged material by shape
//     (internal/gc, internal/mpc). Circuits this party only evaluates
//     need nothing ahead of time.
//
// The online run needs no flag: the session queues and pools make the
// fast path transparent, and any divergence from the plan falls back to
// the direct protocols, which remain correct (only slower). Steps sized
// by the join's output (PlanStep.outSized) scale with the data-dependent
// output size and always run direct.

// PrecomputeOpts executes the offline phase of q's plan on party p:
// base-OT and KKRT setup, one random-OT pool fill per planned OT batch, and
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
// local circuit queue and OT pools fall back batch by batch.
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
		for si := range plan.Steps {
			for _, x := range plan.Steps[si].exchanges {
				if x.kind == exCircuit && x.sender == p.Role {
					staged = append(staged, gc.GarbleAhead(x.build()))
				}
			}
		}
	}()

	tr := &Trace{}
	record := func(rec TraceStep) {
		tr.Steps = append(tr.Steps, rec)
		if pp.Observer != nil {
			pp.Observer(rec)
		}
	}
	// measure runs one offline exchange of step st and adds what it moved
	// to st's record rec.
	measure := func(st *PlanStep, rec *TraceStep, f func() error) error {
		before := pp.Conn.Stats()
		start := time.Now()
		err := f()
		after := pp.Conn.Stats()
		rec.Phase, rec.Op, rec.Node, rec.N, rec.EstBytes = "offline", st.Op, st.Node, st.N, st.EstOfflineBytes
		rec.Bytes += after.TotalBytes() - before.TotalBytes()
		rec.Messages += (after.MessagesSent + after.MessagesRecv) - (before.MessagesSent + before.MessagesRecv)
		rec.Rounds += after.Rounds - before.Rounds
		rec.Elapsed += time.Since(start)
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return stepErr(st, err)
	}
	// The setup steps (base OTs, KKRT setups), then the pool fills in one
	// sweep over the plan per OT direction. In a fill sweep one party
	// sends every correction matrix and the other only receives, so the
	// fills cost a round per direction however often the steps'
	// directions alternate (a PSI's ρ-OT runs against the rest of its
	// step). Each direction's pools still fill in plan order, the order
	// the online run drains them. A step's record sums its parts of the
	// sweeps; steps without offline traffic get none (their circuits, if
	// any, are still staged by the background build).
	recs := make([]TraceStep, len(plan.Steps))
	flush := func() {
		for si := range recs {
			if recs[si].Phase != "" {
				record(recs[si])
			}
		}
	}
	for _, sw := range []sweep{{setup: true}, {sender: mpc.Alice}, {sender: mpc.Bob}} {
		for si := range plan.Steps {
			st := &plan.Steps[si]
			if !sw.has(st) {
				continue
			}
			err := ctx.Err()
			if err != nil {
				err = stepErr(st, err)
			} else {
				err = measure(st, &recs[si], func() error { return ex1Offline(pp, st, sw) })
			}
			if err != nil {
				<-done
				flush()
				return tr, err
			}
		}
	}
	flush()

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
	var rv TraceStep
	err = measure(&PlanStep{Phase: "offline", Op: "rendezvous"}, &rv, func() error {
		if err := pp.Conn.Send(nil); err != nil {
			return err
		}
		_, err := pp.Conn.Recv()
		return err
	})
	record(rv)
	if err != nil {
		return tr, err
	}

	for _, pg := range staged {
		p.EnqueuePreGarbled(pg)
	}
	return tr, nil
}

// establish sets up the extension of setup step st on p, or finds it
// already set up: the extension direction st.sender sends in (base-ot),
// or the KKRT extension of the PSIs st.sender sends in (oprf-base).
func establish(p *mpc.Party, st *PlanStep) error {
	var err error
	switch {
	case st.kind == stepOTSetup && p.Role == st.sender:
		_, err = p.OTSender()
	case st.kind == stepOTSetup:
		_, err = p.OTReceiver()
	case p.Role == st.sender:
		_, err = p.KKRTSender()
	default:
		_, err = p.KKRTReceiver()
	}
	return err
}

// hasCircuits reports whether any step declares a garbled circuit, on
// either side — a property of the plan, so both parties agree on it.
func (pl *Plan) hasCircuits() bool {
	for si := range pl.Steps {
		for _, x := range pl.Steps[si].exchanges {
			if x.kind == exCircuit {
				return true
			}
		}
	}
	return false
}

// sweep is one pass of the offline phase over the plan: the setup steps
// (base-ot, oprf-base), or the pool fills of one OT direction, named by
// its OT sender.
type sweep struct {
	setup  bool
	sender mpc.Role
}

// has reports whether step st has a part in the sweep.
func (sw sweep) has(st *PlanStep) bool {
	if sw.setup {
		return st.setup()
	}
	return len(sw.fills(st)) > 0
}

// fills returns the exchanges of step st whose extension batches the sweep
// fills pools for: the non-empty ones with the sweep's OT sender, in
// execution order. Steps sized by the join's output have none.
func (sw sweep) fills(st *PlanStep) (fills []exchange) {
	if st.outSized() {
		return nil
	}
	for _, x := range st.exchanges {
		if m, _, ok := x.extBatch(); ok && m > 0 && x.sender == sw.sender {
			fills = append(fills, x)
		}
	}
	return fills
}

// ex1Offline performs step st's part of sweep sw: establishing the
// extension of a setup step, or one pool fill per declared batch of
// the sweep's direction. Both parties walk identical plans, so the fills
// proceed in lockstep (a fill is half a round: the receiver sends its
// correction message, the sender only receives).
func ex1Offline(pp *mpc.Party, st *PlanStep, sw sweep) error {
	if sw.setup {
		return establish(pp, st)
	}
	for _, x := range sw.fills(st) {
		m, msgLen, _ := x.extBatch()
		if sw.sender == pp.Role {
			snd, err := pp.OTSender()
			if err != nil {
				return err
			}
			if err := snd.FillRandom(m, msgLen); err != nil {
				return err
			}
		} else {
			rcv, err := pp.OTReceiver()
			if err != nil {
				return err
			}
			if err := rcv.FillRandom(m, msgLen); err != nil {
				return err
			}
		}
	}
	return nil
}
