package core

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/oep"
	"secyan/internal/relation"
	"secyan/internal/yannakakis"
)

// Executor metrics, labeled with bounded cardinality (DESIGN.md §12):
// per-phase step attribution, and per-shape runs and latency SLO
// histograms keyed by "root:digest". Σ steps_by_label is the step count.
var (
	mStepsByLabel = obs.NewCounter("secyan_core_steps_by_label_total",
		"Plan steps executed, by protocol phase.", "phase")
	mStepBytesByLabel = obs.NewCounter("secyan_core_step_bytes_by_label_total",
		"Measured per-step communication in bytes (both directions), by protocol phase.", "phase")
	mQueryLatency = obs.NewHistogram("secyan_core_query_latency_ns",
		"Wall time of completed plan executions in nanoseconds, by query shape (root:digest).", "query")
	mQueryRuns = obs.NewCounter("secyan_core_query_runs_by_shape_total",
		"Completed plan executions, by query shape (root:digest) and outcome (ok | error).", "query", "outcome")
)

// This file is the plan executor: Run and RunShared compile the query
// into the same Plan that Explain renders (plan.go) and walk its steps
// in order. Every step runs under the caller's context — cancellation
// unblocks in-flight transport operations via transport.WithContext —
// and is measured individually (bytes, messages, rounds, wall time)
// through transport.Stats snapshots, producing a Trace and feeding
// Party.Observer. Errors are labeled with the step's phase/op/node.

// Run executes the secure Yannakakis protocol for q. Alice receives the
// query results (rows over the output attributes with their aggregated
// annotations, dummy and zero-annotated rows removed); Bob receives nil.
// Both parties must call Run with structurally identical queries (same
// schemas, owners, sizes, output), differing only in which relations they
// hold. The returned execution trace (one TraceStep per plan step, in
// plan order) is valid — as a prefix — even on error.
func Run(ctx context.Context, p *mpc.Party, q *Query, opts Options) (*relation.Relation, *Trace, error) {
	_, rel, tr, err := runPlan(ctx, p, q, false, opts)
	return rel, tr, err
}

// RunShared is Run stopping before the result annotations are revealed,
// returning them in shared form — the building block of the query
// compositions of §7 (avg, ratios, differences; see compose.go).
func RunShared(ctx context.Context, p *mpc.Party, q *Query, opts Options) (*SharedResult, *Trace, error) {
	res, _, tr, err := runPlan(ctx, p, q, true, opts)
	return res, tr, err
}

// runPlan compiles q and executes the plan step by step. When shared is
// true the final reveal steps are skipped and the shared result
// returned; otherwise the result relation is revealed to Alice.
func runPlan(ctx context.Context, p *mpc.Party, q *Query, shared bool, opts Options) (res *SharedResult, rel *relation.Relation, tr *Trace, err error) {
	if err := q.Validate(p.Role); err != nil {
		return nil, nil, nil, err
	}
	plan, err := ExplainOpts(q, p.Ring.Bits, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	pp, release := p.WithContext(ctx)
	defer release()

	// Protocol-internal dummies must not collide with dummies already in
	// this party's inputs (e.g. private-selection padding).
	ownRels := make([]*relation.Relation, 0, len(q.Inputs))
	for _, in := range q.Inputs {
		if in.Owner == p.Role {
			ownRels = append(ownRels, in.Rel)
		}
	}
	dg, err := relation.NewDummyGenAfter(ownRels...)
	if err != nil {
		return nil, nil, nil, err
	}
	ex := &executor{p: pp, q: q, plan: plan, dg: dg,
		srs: make([]*SharedRelation, len(q.Inputs)), revealed: map[int]*relation.Relation{}}

	// Span tracing: the whole run is one span, each plan phase and step a
	// child, and Track.Bind routes kernel spans (gc, ot, psi) under the
	// step executing them. All of it reads clocks and appends to
	// process-local memory only — never the connection — so transcripts
	// are untouched (guarded by the obs equivalence test).
	track := pp.Track
	var runSpan, phaseSpan obs.Span
	curPhase := ""
	if track != nil {
		unbind := track.Bind()
		defer unbind()
		runSpan = track.Begin("run", "run")
		defer func() {
			phaseSpan.End()
			runSpan.End()
		}()
	}
	live := obs.Enabled()

	// Query-scoped observability: the party's tag, minting a query ID
	// for untagged runs so every record is addressable. Like span
	// tracing, all of it reads clocks and process-local memory only —
	// never the connection.
	tag := p.Tag
	lg := obs.Events()
	var shape string
	var blame string
	runStart := time.Now()
	if live {
		if tag.QID == 0 {
			tag.QID = obs.NextQueryID()
		}
		shape = plan.Root + ":" + plan.DigestString()[:8]
		defer obs.ClearCurrentStep(tag.QID)
		lg.Emit("query.start", tag,
			slog.String("party", p.Role.String()),
			slog.String("root", plan.Root),
			slog.Int("steps", len(plan.Steps)),
			slog.String("plan_digest", plan.DigestString()),
			slog.Bool("shared", shared))
	}
	defer func() {
		if !live {
			return
		}
		elapsed := time.Since(runStart)
		rows := 0
		if rel != nil {
			rows = rel.Len()
		}
		mQueryLatency.Observe(int64(elapsed), shape)
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		mQueryRuns.Add(1, shape, outcome)
		obs.Flight().Record(flightRecord(p, plan, tag, tr, rows, runStart, elapsed, err, blame))
		attrs := make([]slog.Attr, 0, 6)
		attrs = append(attrs,
			slog.String("party", p.Role.String()),
			slog.Int64("bytes", tr.TotalBytes()),
			slog.Int64("rounds", tr.TotalRounds()),
			slog.Duration("elapsed", elapsed),
			slog.Int("rows", rows))
		if err != nil {
			attrs = append(attrs, slog.String("error", err.Error()))
		}
		lg.Emit("query.finish", tag, attrs...)
	}()

	tr = &Trace{}
	for si := range plan.Steps {
		st := &plan.Steps[si]
		if shared && st.final {
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			blame = st.Phase + "/" + st.Op + "[" + st.Node + "]"
			return nil, nil, tr, stepErr(st, cerr)
		}
		var stepSpan obs.Span
		if track != nil {
			if st.Phase != curPhase {
				phaseSpan.End()
				phaseSpan = track.Begin("phase", st.Phase)
				curPhase = st.Phase
			}
			stepSpan = track.Begin("step", st.Op+"["+st.Node+"]")
		}
		if live {
			obs.SetCurrentStep(obs.StepStatus{
				QID: tag.QID, SID: tag.SID, Tenant: tag.Tenant,
				Party: p.Role.String(), Phase: st.Phase, Op: st.Op, Node: st.Node,
				N: st.N, Step: si + 1, Steps: len(plan.Steps),
				StartedUnixNano: time.Now().UnixNano()})
		}
		before := pp.Conn.Stats()
		start := time.Now()
		err := ex.exec(st)
		after := pp.Conn.Stats()
		rec := TraceStep{Phase: st.Phase, Op: st.Op, Node: st.Node,
			N: st.N, EstBytes: st.EstBytes,
			Bytes:    after.TotalBytes() - before.TotalBytes(),
			Messages: (after.MessagesSent + after.MessagesRecv) - (before.MessagesSent + before.MessagesRecv),
			Rounds:   after.Rounds - before.Rounds,
			Elapsed:  time.Since(start)}
		if st.kind == stepLocalJoin || st.kind == stepAlignAnnotations ||
			st.kind == stepAnnotationProduct || st.kind == stepRevealAnnotations {
			rec.N = ex.out // the true output size, known after the local join
		}
		stepSpan.EndN(int64(rec.N))
		tr.Steps = append(tr.Steps, rec)
		if pp.Observer != nil {
			pp.Observer(rec)
		}
		if live {
			mStepsByLabel.Add(1, st.Phase)
			mStepBytesByLabel.Add(rec.Bytes, st.Phase)
			lg.Emit("query.step", tag,
				slog.String("party", p.Role.String()),
				slog.String("phase", st.Phase),
				slog.String("op", st.Op),
				slog.String("node", st.Node),
				slog.Int64("bytes", rec.Bytes),
				slog.Int64("rounds", rec.Rounds),
				slog.Duration("elapsed", rec.Elapsed))
		}
		if err != nil {
			// After cancellation the transport reports artifacts of the
			// teardown; attribute them to the context instead.
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			}
			blame = st.Phase + "/" + st.Op + "[" + st.Node + "]"
			return nil, nil, tr, stepErr(st, err)
		}
	}

	if shared {
		if plan.singleNode >= 0 {
			return &SharedResult{Single: ex.srs[plan.singleNode]}, nil, tr, nil
		}
		return &SharedResult{Join: ex.jr}, nil, tr, nil
	}
	if p.Role != mpc.Alice {
		return nil, nil, tr, nil
	}
	out, err := normalizeResult(ex.result, q.Output)
	if err != nil {
		return nil, nil, tr, err
	}
	return nil, out, tr, nil
}

// flightRecord assembles the flight recorder's completed-query record
// from the measured trace and the compiled plan.
func flightRecord(p *mpc.Party, plan *Plan, tag obs.QueryTag, tr *Trace, rows int,
	start time.Time, elapsed time.Duration, err error, blame string) obs.QueryRecord {
	rec := obs.QueryRecord{
		QID:           tag.QID,
		SID:           tag.SID,
		Tenant:        tag.Tenant,
		Party:         p.Role.String(),
		Peer:          p.Role.Other().String(),
		Query:         plan.Root,
		PlanDigest:    plan.DigestString(),
		Steps:         len(plan.Steps),
		StartUnixNano: start.UnixNano(),
		Seconds:       elapsed.Seconds(),
		OutputRows:    rows,
	}
	if tr != nil {
		rec.Bytes = tr.TotalBytes()
		rec.Rounds = tr.TotalRounds()
		rec.Phases = tr.PhaseStats()
	}
	if err != nil {
		rec.Error = err.Error()
		rec.Blame = blame
	}
	return rec
}

// stepErr labels an operator error with its plan coordinates, e.g.
// "reduce/psi-payload[lineitem→orders]: ...".
func stepErr(st *PlanStep, err error) error {
	return fmt.Errorf("%s/%s[%s]: %w", st.Phase, st.Op, st.Node, err)
}

// executor is the mutable state of one plan execution on one party.
type executor struct {
	p    *mpc.Party
	q    *Query
	plan *Plan
	dg   *relation.DummyGen

	srs      []*SharedRelation          // per tree node, updated in place
	pending  *SharedRelation            // aggregate/π¹ result feeding the next semijoin-into
	revealed map[int]*relation.Relation // join-phase revealed relations (Alice)
	prov     *yannakakis.Provenance     // Alice only
	out      int                        // true output size, set by local-join
	factors  [][]uint64                 // aligned annotation shares, join order
	jr       *JoinResult
	result   *relation.Relation // Alice: revealed result rows before normalization
}

func (ex *executor) exec(st *PlanStep) error {
	p := ex.p
	switch st.kind {
	case stepOTSetup, stepOPRFSetup:
		// Both parties establish the extension eagerly and in plan order,
		// so setup traffic lands on this step rather than inside whichever
		// operator first needs it. A cache hit (composed queries reusing a
		// party) costs nothing.
		return establish(p, st)
	case stepShareInput, stepPlainInput:
		in := ex.q.Inputs[st.node]
		var sr *SharedRelation
		var err error
		if st.kind == stepShareInput {
			sr, err = ShareInput(p, in.Owner, in.Rel, in.Schema, in.N)
		} else {
			sr, err = NewPlainInput(p, in.Owner, in.Rel, in.Schema, in.N)
		}
		if err != nil {
			return err
		}
		ex.srs[st.node] = sr
		return nil
	case stepAggregate:
		agg, err := runMerge(p, ex.dg, ex.srs[st.node], st.attrs, mergeSum)
		if err != nil {
			return err
		}
		if st.intoPending {
			ex.pending = agg
		} else {
			ex.srs[st.node] = agg
		}
		return nil
	case stepProjectOne:
		ind, err := runMerge(p, ex.dg, ex.srs[st.node], st.attrs, mergeOr)
		if err != nil {
			return err
		}
		ex.pending = ind
		return nil
	case stepSemijoinInto:
		child := ex.pending
		ex.pending = nil
		joined, err := SemijoinInto(p, ex.dg, ex.srs[st.parent], child)
		if err != nil {
			return err
		}
		ex.srs[st.parent] = joined
		return nil
	case stepRevealRelation:
		res, err := RevealRelation(p, ex.srs[st.node])
		if err != nil {
			return err
		}
		ex.result = res
		return nil
	case stepRevealRows:
		r, err := revealNonzeroRows(p, ex.srs[st.node])
		if err != nil {
			return err
		}
		ex.revealed[st.node] = r
		return nil
	case stepLocalJoin:
		return ex.localJoin()
	case stepAlignAnnotations:
		return ex.alignNode(st.node)
	case stepAnnotationProduct:
		return ex.annotationProduct()
	case stepRevealAnnotations:
		var err error
		ex.result, err = ex.jr.reveal(p)
		return err
	}
	return fmt.Errorf("core: unknown plan step kind %d", st.kind)
}

// localJoin is §6.3 step 2: Alice joins the revealed relations with the
// plaintext Yannakakis engine, tracking provenance, and shares OUT.
func (ex *executor) localJoin() error {
	p := ex.p
	if p.Role != mpc.Alice {
		out, err := recvPublicSize(p.Conn)
		if err != nil {
			return err
		}
		ex.out = out
		return nil
	}
	rels := make([]*relation.Relation, len(ex.srs))
	for i, s := range ex.srs {
		if r := ex.revealed[i]; r != nil {
			rels[i] = r
		} else {
			rels[i] = relation.New(s.Schema)
		}
	}
	prov, err := yannakakis.JoinProvenance(ex.plan.tree, rels, ex.plan.joinOrder)
	if err != nil {
		return err
	}
	ex.prov = prov
	ex.out = prov.Result.Len()
	return sendPublicSize(p.Conn, ex.out)
}

// alignNode is §6.3 step 3a for one relation: an OEP programmed by
// Alice's provenance re-aligns its annotation shares to the join rows.
// With an empty join it is a recorded no-op on both sides.
func (ex *executor) alignNode(node int) error {
	if ex.out == 0 {
		return nil
	}
	p := ex.p
	s := ex.srs[node]
	var f []uint64
	var err error
	if p.Role == mpc.Alice {
		xi := make([]int, ex.out)
		for row := range xi {
			src := ex.prov.Sources[row][node]
			if src < 0 {
				return fmt.Errorf("core: missing provenance for node %d", node)
			}
			xi[row] = src
		}
		f, err = oep.RunProgrammer(p, xi, s.N, s.Annot)
	} else {
		f, err = oep.RunHelper(p, s.N, ex.out, s.Annot)
	}
	if err != nil {
		return err
	}
	ex.factors = append(ex.factors, f)
	return nil
}

// annotationProduct is §6.3 step 3b: productTree multiplies the aligned
// factors per join row, yielding shared result annotations, and
// assembles the JoinResult (rows on Alice's side).
func (ex *executor) annotationProduct() error {
	p := ex.p
	schema := unionSchema(ex.srs, ex.plan.joinOrder)
	out := ex.out
	if out == 0 {
		ex.jr = &JoinResult{N: 0, Schema: schema}
		if p.Role == mpc.Alice {
			ex.jr.Rows = relation.New(schema)
		}
		return nil
	}
	annot, err := productTree(p, ex.factors)
	if err != nil {
		return err
	}
	ex.jr = &JoinResult{N: out, Schema: schema, Annot: annot}
	if p.Role == mpc.Alice {
		// Reorder the provenance result columns to the union schema.
		rows := relation.New(schema)
		cols, err := ex.prov.Result.Schema.Positions(schema.Attrs)
		if err != nil {
			return err
		}
		for i := range ex.prov.Result.Tuples {
			row := make([]uint64, len(cols))
			for c, cc := range cols {
				row[c] = ex.prov.Result.Tuples[i][cc]
			}
			rows.Append(row, 0)
		}
		ex.jr.Rows = rows
	}
	return nil
}

// productTree multiplies equal-length share vectors elementwise. Each
// level of a balanced tree multiplies adjacent pairs in one mulShares
// batch over their concatenation — an odd vector out waits for the next
// level — so k factors take ⌈log₂k⌉ batches. Bob sends every batch: the
// OT direction the join's alignment OEPs already use.
func productTree(p *mpc.Party, factors [][]uint64) ([]uint64, error) {
	for len(factors) > 1 {
		pairs, n := len(factors)/2, len(factors[0])
		a := make([]uint64, 0, pairs*n)
		b := make([]uint64, 0, pairs*n)
		for i := 0; i < pairs; i++ {
			a = append(a, factors[2*i]...)
			b = append(b, factors[2*i+1]...)
		}
		prod, err := mulShares(p, a, b, mpc.Alice)
		if err != nil {
			return nil, err
		}
		next := make([][]uint64, 0, pairs+1)
		for i := 0; i < pairs; i++ {
			next = append(next, prod[i*n:(i+1)*n])
		}
		factors = append(next, factors[2*pairs:]...)
	}
	return factors[0], nil
}

// productBatches declares productTree's exchanges over k vectors of n
// shares: one mulShares batch per level, Bob sending.
func productBatches(n, k, ell int) []exchange {
	var ex []exchange
	for ; k > 1; k = (k + 1) / 2 {
		ex = append(ex, mulBatch(mpc.Bob, n*(k/2), ell))
	}
	return ex
}
