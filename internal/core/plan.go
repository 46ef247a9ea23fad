package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"secyan/internal/gc"
	"secyan/internal/jointree"
	"secyan/internal/mpc"
	"secyan/internal/oep"
	"secyan/internal/ot"
	"secyan/internal/relation"
)

// This file is the plan compiler: the single place that decides which
// operators a query executes. ExplainOpts replays the driver's control
// flow over public parameters only (schemas, sizes, owners, plainness),
// so both parties — and Explain — derive the identical Plan; the
// executor in exec.go then walks the steps without re-deciding anything.
// Per-step estimates come from the cost models of the ot, gc, oep and
// psi packages, which are pinned byte-exact to measured traffic by their
// own tests, so EstBytes is a prediction of the wire, not a heuristic.

// stepKind discriminates the executor action behind a plan step.
type stepKind int

const (
	stepOTSetup stepKind = iota
	stepOPRFSetup
	stepShareInput
	stepPlainInput
	stepAggregate
	stepProjectOne
	stepSemijoinInto
	stepRevealRelation
	stepRevealRows
	stepLocalJoin
	stepAlignAnnotations
	stepAnnotationProduct
	stepRevealAnnotations
)

// exchange is one unit of a plan step's traffic: an OT-extension batch,
// a product batch, a garbled circuit, a KKRT batch or plain bytes. Each
// step declares its exchanges once, in execution order; its estimates,
// the setup steps and the precompute sweeps are all sums or filters over
// that list. A circuit exchange stands for the circuit's messages and
// its input-label batch, a Δ-OT batch of Dims.EvalInputs labels with the
// garbler as OT sender.
type exchange struct {
	kind exchangeKind
	// A product batch's width in bits and terms per product, small
	// enough to share kind's word: planning builds many exchanges.
	ell, terms uint8
	sender     mpc.Role // OT sender, garbler, or PSI sender of a KKRT batch
	m          int      // OTs, KKRT bins, products, or plain bytes
	msgLen     int      // OT message bytes
	dims       *gc.Dims // circuit dimensions, known without building it
	// build defers construction to Precompute: planning stays cheap, and
	// circuits are only materialized when ahead-of-time garbling wants
	// them.
	build func() *gc.Circuit
}

type exchangeKind uint8

const (
	exOT exchangeKind = iota
	exProduct
	exCircuit
	exKKRT
	exPlain
)

// labelBatch is the message width extBatch reports for a circuit's label
// batch: Δ-OTs, whose rows are the labels and which hash no pad
// (ot.DeltaBatch).
const labelBatch = 0

func otBatch(sender mpc.Role, m, msgLen int) exchange {
	return exchange{kind: exOT, sender: sender, m: m, msgLen: msgLen}
}

// oepBatch is the one OT batch of an OEP from m to n ell-bit shares.
func oepBatch(sender mpc.Role, m, n, ell int, bijection bool) exchange {
	return otBatch(sender, oep.Gates(m, n, bijection), oep.MsgLen(ell))
}

// productBatch is the one batch of mulShares over n products of `terms`
// terms each (ot.SendProducts).
func productBatch(sender mpc.Role, n, ell, terms int) exchange {
	return exchange{kind: exProduct, sender: sender, m: n, ell: uint8(ell), terms: uint8(terms)}
}

func circuit(garbler mpc.Role, dims *gc.Dims, build func() *gc.Circuit) exchange {
	return exchange{kind: exCircuit, sender: garbler, dims: dims, build: build}
}

func plainBytes(n int) exchange { return exchange{kind: exPlain, m: n} }

// extBatch returns the OT-extension batch the exchange runs — its own,
// a product batch's random OTs, or a circuit's label batch (msgLen
// labelBatch) — with x.sender as OT sender; ok is false for a KKRT batch
// and plain bytes.
func (x exchange) extBatch() (m, msgLen int, ok bool) {
	switch x.kind {
	case exOT:
		return x.m, x.msgLen, true
	case exProduct:
		m, msgLen = ot.ProductBatch(x.m, int(x.ell), int(x.terms))
		return m, msgLen, true
	case exCircuit:
		return x.dims.EvalInputs, labelBatch, true
	}
	return 0, 0, false
}

// cost returns the exchange's bytes (both directions) when it runs
// direct, and its offline and online bytes when its extension batch
// derandomizes a pooled one: the batch's correction message moves
// offline and ⌈m/8⌉ derandomization bits join the online rest. A
// circuit's label batch is its correction message alone, or its
// derandomization bits alone. A KKRT batch is not pooled.
func (x exchange) cost() (direct, offline, online int64) {
	switch x.kind {
	case exOT:
		return ot.CorrelatedCost(x.m, x.msgLen), ot.ExtOfflineCost(x.m), ot.CorrelatedOnlineCost(x.m, x.msgLen)
	case exProduct:
		ell, terms := int(x.ell), int(x.terms)
		m, _ := ot.ProductBatch(x.m, ell, terms)
		return ot.ProductCost(x.m, ell, terms), ot.ExtOfflineCost(m), ot.ProductOnlineCost(x.m, ell, terms)
	case exCircuit:
		msgs, l := x.dims.MessageCost(), x.dims.EvalInputs
		return msgs + ot.ExtOfflineCost(l), ot.ExtOfflineCost(l), msgs + ot.RandomOnlineCost(l)
	case exKKRT:
		c := ot.KKRTCost(x.m)
		return c, 0, c
	}
	return int64(x.m), 0, int64(x.m)
}

// PlanStep is one operator invocation in the plan.
type PlanStep struct {
	Phase string // setup | input | reduce | aggregate | semijoin | join | reveal
	Op    string
	Node  string // relation involved (or "→parent" notation)
	N     int    // primary size
	// EstBytes estimates the step's total communication (both
	// directions): the direct bytes of its exchanges, or a setup step's
	// base OTs. Steps sized by the join's output (outSized) use EstOut.
	EstBytes int64
	// EstOfflineBytes and EstOnlineBytes split the step's traffic under
	// the precomputed schedule: offline moves the base OTs and the
	// OT-extension correction matrices, online keeps everything else
	// plus ⌈m/8⌉ derandomization bits per pooled batch (so the two may
	// sum to slightly more than EstBytes, while online alone never
	// exceeds it). Without precomputation the
	// whole step is online and EstBytes alone applies.
	EstOfflineBytes int64
	EstOnlineBytes  int64

	// Executor fields, invisible to plan consumers: the step's action and
	// its operands as node indices into the query's inputs.
	kind        stepKind
	node        int             // primary node (input/aggregate/reveal steps)
	parent      int             // semijoin-into target node
	attrs       []relation.Attr // aggregation/projection attributes
	sender      mpc.Role        // setup steps: base-ot's OT sender, oprf-base's PSI sender
	intoPending bool            // aggregate result feeds the next semijoin-into
	final       bool            // reveal step skipped by RunShared

	// exchanges is the step's traffic in execution order (see exchange).
	exchanges []exchange
}

// setup reports whether the step establishes an OT extension (base-ot,
// oprf-base) rather than running an operator.
func (s *PlanStep) setup() bool { return s.kind == stepOTSetup || s.kind == stepOPRFSetup }

// outSized reports whether the step scales with the join's output size,
// which only the run learns: its exchanges are priced at EstOut, run
// direct, and take no part in the setup steps or the precompute sweeps.
// A run with an empty join executes none of them.
func (s *PlanStep) outSized() bool {
	switch s.kind {
	case stepLocalJoin, stepAlignAnnotations, stepAnnotationProduct, stepRevealAnnotations:
		return true
	}
	return false
}

// Plan is the physical plan of a query: the ordered operator DAG that
// Explain renders and the executor runs.
type Plan struct {
	Steps     []PlanStep
	Root      string
	Remaining []string
	// EstBytes totals the step estimates.
	EstBytes int64
	// EstOfflineBytes and EstOnlineBytes total the per-step phase splits
	// under the precomputed schedule (see PlanStep).
	EstOfflineBytes int64
	EstOnlineBytes  int64
	// EstOut is the output-size assumption used for join-phase steps.
	EstOut int

	tree       *jointree.Tree
	joinOrder  []int // sorted surviving nodes of the final join (nil when single)
	singleNode int   // surviving node of the single-survivor shortcut, -1 otherwise
}

// Digest is a stable 64-bit fingerprint of the plan's operator
// structure: root plus the step sequence's phases, operators and node
// labels — but not input sizes — so runs of the same query shape share a
// digest across dataset scales. Both parties
// compile identical plans, so both compute the same digest; the flight
// recorder and the per-shape SLO histograms key on it.
func (p *Plan) Digest() uint64 {
	h := fnv.New64a()
	io.WriteString(h, p.Root)
	for i := range p.Steps {
		s := &p.Steps[i]
		io.WriteString(h, "|")
		io.WriteString(h, s.Phase)
		io.WriteString(h, "/")
		io.WriteString(h, s.Op)
		io.WriteString(h, "[")
		io.WriteString(h, s.Node)
		io.WriteString(h, "]")
	}
	return h.Sum64()
}

// DigestString renders Digest as 16 hex digits.
func (p *Plan) DigestString() string { return fmt.Sprintf("%016x", p.Digest()) }

// OnSession prices p for a stream of an mpc.Session and returns it: the
// setup steps derive the stream's extensions from the session's root
// (mpc.Party.OnSession), which moves nothing on the stream, so they cost
// 0 B. The root's own traffic is the session's, once, and no query's.
// The join tree stays the one the full prices chose, so a stream runs
// the plan a party with no session runs, less the setup.
func (p *Plan) OnSession() *Plan {
	for i := range p.Steps {
		if s := &p.Steps[i]; s.setup() {
			p.EstBytes -= s.EstBytes
			p.EstOfflineBytes -= s.EstOfflineBytes
			p.EstOnlineBytes -= s.EstOnlineBytes
			s.EstBytes, s.EstOfflineBytes, s.EstOnlineBytes = 0, 0, 0
		}
	}
	return p
}

// Options is the one configuration value of a query: Explain, Precompute
// and Run compile the same plan from the same Options, so a holder keeps
// a single value and passes it unchanged to all three.
type Options struct {
	// EstOut is the assumed output size, used only to price the
	// join-phase steps of multi-survivor queries (the step sequence does
	// not depend on it; the run learns the true size). Because the
	// join-tree root is chosen by total estimate, both parties must pass
	// the same value.
	EstOut int
}

// ExecOptions and PlanOptions are the names the frozen bench/adapt.go
// spells Options by; nothing else uses them.
type (
	ExecOptions = Options
	PlanOptions = Options
)

// ExplainOpts compiles q into its physical plan: the same object the
// executor runs — Run differs only in feeding it data. The join-tree
// root is itself chosen by cost: every candidate rooted tree the
// planner accepts is compiled (with the same options) and the one with
// the smallest total estimate wins; ties keep the planner's first
// candidate, which is the tree the pre-costing planner would have picked.
func ExplainOpts(q *Query, ringBits int, opts Options) (*Plan, error) {
	plans := map[*jointree.Tree]*Plan{}
	tree, err := q.Hypergraph().PlanCosted(q.Output, func(t *jointree.Tree) (int64, error) {
		pl, err := compileTree(q, t, ringBits, opts)
		if err != nil {
			return 0, err
		}
		plans[t] = pl
		return pl.EstBytes, nil
	})
	if err != nil {
		return nil, err
	}
	return plans[tree], nil
}

// explainFor is the plan party p runs q by: ExplainOpts, priced for a
// session stream when p runs on one.
func explainFor(p *mpc.Party, q *Query, opts Options) (*Plan, error) {
	plan, err := ExplainOpts(q, p.Ring.Bits, opts)
	if err == nil && p.OnSession() {
		plan.OnSession()
	}
	return plan, err
}

// nodeState is the public protocol state of one tree node during
// compilation: everything the cost model and operator dispatch depend
// on, and nothing data-dependent.
type nodeState struct {
	schema relation.Schema
	n      int
	plain  bool
	holder mpc.Role
}

// revealDims returns the dimensions of the reveal circuit of n rows.
// It is slot-built: one gadget and a slot count, so building it to read
// its dimensions costs the same at any size.
func revealDims(n, cols, ell int, withRows bool) *gc.Dims {
	v := 0
	if withRows {
		v = 1
	}
	return cachedDims(dimsKey{op: "reveal", m: cols, n: n, ell: ell, variant: v}, func() gc.Dims {
		return gc.DimsOf(buildRevealCircuit(n, cols, ell, withRows, 0))
	})
}

// compileTree compiles q over one rooted join tree, mirroring the
// three-phase driver on nodeState. opts.EstOut sizes the join-phase
// estimates only; the step sequence is independent of it, so a plan
// compiled with EstOut=0 produces the same trace shape as one compiled
// with the true output size.
func compileTree(q *Query, tree *jointree.Tree, ringBits int, opts Options) (*Plan, error) {
	estOut := opts.EstOut
	ell := ringBits
	plan := &Plan{Root: q.Inputs[tree.Root].Name, EstOut: estOut, tree: tree, singleNode: -1}
	// Room for every step a node can contribute: the candidate trees of
	// one ExplainOpts are all compiled, so regrowing here is what a warm
	// plan mostly costs.
	steps := make([]PlanStep, 0, 10*len(q.Inputs)+3)
	add := func(s PlanStep) { steps = append(steps, s) }

	outSet := map[relation.Attr]bool{}
	for _, a := range q.Output {
		outSet[a] = true
	}
	state := make([]nodeState, len(q.Inputs))
	for i, in := range q.Inputs {
		state[i] = nodeState{schema: in.Schema, n: in.N, plain: !q.NoLocalOptimizations, holder: in.Owner}
		if q.NoLocalOptimizations {
			add(PlanStep{Phase: "input", Op: "share-annotations", Node: in.Name, N: in.N,
				kind: stepShareInput, node: i, exchanges: []exchange{plainBytes(8 * in.N)}})
		} else {
			add(PlanStep{Phase: "input", Op: "plain-input", Node: in.Name, N: in.N,
				kind: stepPlainInput, node: i})
		}
	}

	// Semijoin and aggregate steps declare the exchanges their operators
	// will run (exchanges.go), so Precompute can garble and fill pools
	// from the plan alone.
	// revealRows declares the §6.3 step-1 reveal of one relation: Bob
	// garbles the reveal circuit, or a plain relation's rows go to Alice
	// in the clear.
	revealRows := func(st nodeState) []exchange {
		n, cols := st.n, len(st.schema.Attrs)
		switch {
		case n == 0 || st.plain && st.holder == mpc.Alice:
			return nil
		case st.plain:
			return []exchange{plainBytes(8 * n * cols)}
		}
		withRows := st.holder == mpc.Bob
		return []exchange{circuit(mpc.Bob, revealDims(n, cols, ell, withRows),
			func() *gc.Circuit { return buildRevealCircuit(n, cols, ell, withRows, 0) })}
	}

	// Phase 1: Reduce (§6.4 step 1), replayed on public state.
	removed := make([]bool, len(state))
	aggregated := make([]bool, len(state))
	childrenLeft := make([]int, len(state))
	for i, cs := range tree.Children {
		childrenLeft[i] = len(cs)
	}
	for _, i := range tree.PostOrder {
		if i == tree.Root || childrenLeft[i] > 0 {
			continue
		}
		parent := tree.Parent[i]
		var fPrime []relation.Attr
		for _, a := range state[i].schema.Attrs {
			if outSet[a] || state[parent].schema.Has(a) {
				fPrime = append(fPrime, a)
			}
		}
		subset := true
		for _, a := range fPrime {
			if !state[parent].schema.Has(a) {
				subset = false
				break
			}
		}
		add(PlanStep{Phase: "reduce", Op: "aggregate", Node: q.Inputs[i].Name, N: state[i].n,
			kind: stepAggregate, node: i, attrs: fPrime, intoPending: subset,
			exchanges: aggExchanges(state[i], mergeSum, ell)})
		state[i].schema = relation.MustSchema(fPrime...)
		if subset {
			add(PlanStep{Phase: "reduce", Op: "semijoin-into", Node: q.Inputs[i].Name + "→" + q.Inputs[parent].Name,
				N: state[parent].n, kind: stepSemijoinInto, parent: parent,
				exchanges: semijoinExchanges(state[parent], state[i], ell)})
			state[parent].plain = false
			removed[i] = true
			childrenLeft[parent]--
		} else {
			aggregated[i] = true
		}
	}

	var remaining []int
	for _, i := range tree.PostOrder {
		if !removed[i] {
			remaining = append(remaining, i)
			plan.Remaining = append(plan.Remaining, q.Inputs[i].Name)
		}
	}

	// Soundness guards (see driver.go history: the planner only emits
	// trees satisfying these, but they are cheap and protect against
	// planner regressions). They depend only on public schemas, so the
	// compiler — shared by Explain and the executor — is the right home.
	for _, i := range remaining {
		if i == tree.Root {
			continue
		}
		for _, a := range state[i].schema.Attrs {
			if !outSet[a] {
				return nil, fmt.Errorf("core: internal error: surviving node %s kept non-output attribute %q", q.Inputs[i].Name, a)
			}
		}
	}
	for _, a := range state[tree.Root].schema.Attrs {
		if outSet[a] {
			continue
		}
		for _, i := range remaining {
			if i != tree.Root && state[i].schema.Has(a) {
				return nil, fmt.Errorf("core: internal error: root folds attribute %q still joined by %s", a, q.Inputs[i].Name)
			}
		}
	}

	// Every surviving node that skipped the reduce-phase aggregation gets
	// one now (folds non-output attributes, collapses duplicates).
	for _, i := range remaining {
		if aggregated[i] {
			continue
		}
		var keep []relation.Attr
		for _, a := range state[i].schema.Attrs {
			if outSet[a] {
				keep = append(keep, a)
			}
		}
		add(PlanStep{Phase: "aggregate", Op: "aggregate", Node: q.Inputs[i].Name, N: state[i].n,
			kind: stepAggregate, node: i, attrs: keep, exchanges: aggExchanges(state[i], mergeSum, ell)})
		state[i].schema = relation.MustSchema(keep...)
	}

	if len(remaining) == 1 {
		// Single-survivor shortcut (§8.1): reveal rows and annotations.
		r := remaining[0]
		plan.singleNode = r
		add(PlanStep{Phase: "reveal", Op: "reveal-relation", Node: q.Inputs[r].Name,
			N: state[r].n, kind: stepRevealRelation, node: r, final: true,
			exchanges: append(revealRows(state[r]), plainBytes(8*state[r].n))})
		return plan.seal(steps), nil
	}

	// Phase 2: Semijoin — π¹ on the filter side plus the semijoin itself.
	semijoin := func(target, by int) {
		shared := state[target].schema.Intersect(state[by].schema)
		add(PlanStep{Phase: "semijoin", Op: "project-one", Node: q.Inputs[by].Name, N: state[by].n,
			kind: stepProjectOne, node: by, attrs: shared, exchanges: aggExchanges(state[by], mergeOr, ell)})
		ind := nodeState{schema: relation.MustSchema(shared...), n: state[by].n,
			plain: state[by].plain, holder: state[by].holder}
		add(PlanStep{Phase: "semijoin", Op: "semijoin-into", Node: q.Inputs[by].Name + "→" + q.Inputs[target].Name,
			N: state[target].n, kind: stepSemijoinInto, parent: target,
			exchanges: semijoinExchanges(state[target], ind, ell)})
		state[target].plain = false
	}
	for _, i := range remaining {
		if i != tree.Root {
			semijoin(tree.Parent[i], i)
		}
	}
	for idx := len(remaining) - 1; idx >= 0; idx-- {
		if i := remaining[idx]; i != tree.Root {
			semijoin(i, tree.Parent[i])
		}
	}

	// Phase 3: Full join (§6.3), decomposed into its message-level steps
	// so each gets its own trace record. The executor visits nodes in
	// sorted order, matching ObliviousJoin.
	order := append([]int(nil), remaining...)
	sort.Ints(order)
	plan.joinOrder = order
	joinLabel := strings.Join(plan.Remaining, "⋈")
	for _, i := range order {
		add(PlanStep{Phase: "join", Op: "reveal-rows", Node: q.Inputs[i].Name,
			N: state[i].n, kind: stepRevealRows, node: i, exchanges: revealRows(state[i])})
	}
	// Alice programs every alignment OEP, so Bob is its OT sender.
	add(PlanStep{Phase: "join", Op: "local-join", Node: joinLabel,
		N: estOut, kind: stepLocalJoin, exchanges: []exchange{plainBytes(8)}})
	for _, i := range order {
		var align []exchange
		if estOut > 0 {
			align = []exchange{oepBatch(mpc.Bob, state[i].n, estOut, ell, false)}
		}
		add(PlanStep{Phase: "join", Op: "align-annotations", Node: q.Inputs[i].Name,
			N: estOut, kind: stepAlignAnnotations, node: i, exchanges: align})
	}
	add(PlanStep{Phase: "join", Op: "annotation-product", Node: joinLabel,
		N: estOut, kind: stepAnnotationProduct, exchanges: productBatches(estOut, len(order), ell)})
	add(PlanStep{Phase: "reveal", Op: "reveal-annotations", Node: "result",
		N: estOut, kind: stepRevealAnnotations, final: true, exchanges: []exchange{plainBytes(8 * estOut)}})
	return plan.seal(steps), nil
}

// seal prepends the setup steps and totals the estimates. Every OT
// direction the plan's exchanges use gets a base-ot step: the first runs
// the public-key base OTs (ot.SetupCost), a second is derived from it
// (ot.DeriveCost, mpc.Party.OTSender). Then every PSI orientation gets an
// oprf-base step: the PSI sender sets up its KKRT extension from random
// OTs of the direction in which it is the OT receiver, the one the PSI's
// ρ-OT runs in (ot.KKRTSetupCost, mpc.Party.KKRTSender), and sends the
// step's one message. When a composed query reuses a party's existing
// sessions the setup steps execute as free cache hits; on a stream of a
// session they are priced at 0 B (OnSession).
func (p *Plan) seal(steps []PlanStep) *Plan {
	// extBatch[r] and kkrt[r]: whether an exchange runs an extension
	// batch with OT sender r, or a KKRT batch with PSI sender r.
	var extBatch, kkrt [2]bool
	for i := range steps {
		if steps[i].outSized() {
			continue
		}
		for _, x := range steps[i].exchanges {
			if _, _, ok := x.extBatch(); ok {
				extBatch[x.sender] = true
			} else if x.kind == exKKRT {
				kkrt[x.sender] = true
			}
		}
	}
	all := make([]PlanStep, 0, 4+len(steps))
	for _, r := range []mpc.Role{mpc.Alice, mpc.Bob} {
		if !extBatch[r] {
			continue
		}
		node, est := r.String()+" sends", ot.SetupCost()
		if len(all) > 0 {
			node, est = node+" (derived)", ot.DeriveCost()
		}
		all = append(all, PlanStep{Phase: "setup", Op: "base-ot", Node: node,
			EstBytes: est, EstOfflineBytes: est, kind: stepOTSetup, sender: r})
	}
	for _, r := range []mpc.Role{mpc.Alice, mpc.Bob} {
		if kkrt[r] {
			est := ot.KKRTSetupCost()
			all = append(all, PlanStep{Phase: "setup", Op: "oprf-base", Node: r.String() + " sends (KKRT)",
				EstBytes: est, EstOfflineBytes: est, kind: stepOPRFSetup, sender: r})
		}
	}
	p.Steps = append(all, steps...)
	for i := range p.Steps {
		s := &p.Steps[i]
		for _, x := range s.exchanges {
			direct, offline, online := x.cost()
			if s.outSized() {
				offline, online = 0, direct
			}
			s.EstBytes += direct
			s.EstOfflineBytes += offline
			s.EstOnlineBytes += online
		}
		p.EstBytes += s.EstBytes
		p.EstOfflineBytes += s.EstOfflineBytes
		p.EstOnlineBytes += s.EstOnlineBytes
	}
	return p
}
