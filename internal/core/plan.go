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
	"secyan/internal/obs"
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

// otMsgLen is the message width of every protocol-level OT batch but the
// share multiplication's: gc input labels, oep payload pairs and the PSI
// OPRF's pads are all 16 bytes.
const otMsgLen = 16

// preOT is one OT-extension batch a plan step will run, identified by
// the sending role, the batch size and the message width. The sequence
// of preOTs across a plan's steps is exactly the sequence of batches —
// chosen-message or random — the executor issues per direction, which
// is what lets Precompute fill the random-OT pools so every online
// batch derandomizes a pooled one.
type preOT struct {
	sender mpc.Role
	m      int
	msgLen int // 0 = otMsgLen
}

// width is the batch's message width in bytes.
func (d preOT) width() int {
	if d.msgLen == 0 {
		return otMsgLen
	}
	return d.msgLen
}

// preCirc is one garbled circuit a plan step will run. The build closure
// defers construction to Precompute: planning stays cheap, and circuits
// are only materialized when ahead-of-time garbling actually wants them.
type preCirc struct {
	garbler mpc.Role
	build   func() *gc.Circuit
}

// PlanStep is one operator invocation in the plan.
type PlanStep struct {
	Phase string // setup | input | reduce | aggregate | semijoin | join | reveal
	Op    string
	Node  string // relation involved (or "→parent" notation)
	N     int    // primary size
	// EstBytes estimates the step's total communication (both
	// directions). Join-phase steps scale with the (unknown) output size
	// and use EstOut.
	EstBytes int64
	// Chunks is the step's chunk demand under the plan's ChunkSize: the
	// number of chunk-sized windows its tuple-plane loops process
	// (⌈N/ChunkSize⌉; 0 for size-independent steps). It sits next to the
	// preOT/preCirc demands: a description of the step's data plane, with
	// no effect on the wire — chunking is transcript-invariant.
	Chunks int
	// EstOfflineBytes and EstOnlineBytes split the step's traffic under
	// the precomputed schedule: offline moves the base OTs and the
	// OT-extension correction matrices, online keeps everything else
	// plus ⌈m/8⌉ derandomization bits per pooled batch (so the two may
	// sum to slightly more than EstBytes). Without precomputation the
	// whole step is online and EstBytes alone applies.
	EstOfflineBytes int64
	EstOnlineBytes  int64
	// Backend is the secure-join backend serving this step. Semijoin and
	// aggregate steps carry the winner of the per-node backend auction
	// (see backend.go); every other step is empty.
	Backend BackendID
	// Alternatives is the step's full pricing table: every backend that
	// bid, its estimate, and which one won. Explain renders it.
	Alternatives []BackendChoice

	// Executor fields, invisible to plan consumers: the step's action and
	// its operands as node indices into the query's inputs.
	kind        stepKind
	node        int             // primary node (input/aggregate/reveal steps)
	parent      int             // semijoin-into target node
	attrs       []relation.Attr // aggregation/projection attributes
	sender      mpc.Role        // OT-setup direction: the role acting as OT sender
	intoPending bool            // aggregate result feeds the next semijoin-into
	final       bool            // reveal step skipped by RunShared

	// Precompute demands: the OT batches and circuits this step will
	// run, in execution order. Join-phase steps scale with the unknown
	// output size and declare none.
	preOTs   []preOT
	preCircs []preCirc
}

// Estimate returns the step's predicted communication in bytes (both
// directions), derived from the circuit builders and switching-network
// closed forms the executor actually uses.
func (s *PlanStep) Estimate() int64 { return s.EstBytes }

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
	// ChunkSize is the tuple-plane streaming granularity the executor
	// will run this plan with: a positive tuple count, or
	// relation.Unbounded for fully materialized execution. It bounds
	// per-operator working-set memory and nothing else — transcripts are
	// identical for every value (see DESIGN.md §12).
	ChunkSize int

	tree       *jointree.Tree
	joinOrder  []int // sorted surviving nodes of the final join (nil when single)
	singleNode int   // surviving node of the single-survivor shortcut, -1 otherwise
}

// Digest is a stable 64-bit fingerprint of the plan's operator
// structure: root plus the step sequence's phases, operators, node
// labels and chosen backends — but not input sizes — so runs of the
// same query shape share a digest across dataset scales. Both parties
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
		io.WriteString(h, string(s.Backend))
	}
	return h.Sum64()
}

// DigestString renders Digest as 16 hex digits.
func (p *Plan) DigestString() string { return fmt.Sprintf("%016x", p.Digest()) }

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
	// ChunkSize bounds the tuple-plane working set of every operator: a
	// positive tuple count streams relations in chunks of that size, 0
	// uses relation.DefaultChunkSize, and any negative value
	// (relation.Unbounded) materializes fully. Results, per-step traces
	// and per-stream transport stats are byte-identical for every value
	// — the chunk-invariance suites pin this.
	ChunkSize int
	// Backend forces every semijoin/aggregate step onto one backend
	// wherever it is applicable; inapplicable steps keep the cost-based
	// choice. Empty means cost-based selection everywhere. This changes
	// the transcript: both parties must pass the same value.
	Backend BackendID
	// Tag carries the session/query IDs minted by the session layer, so
	// events, labeled metrics and flight records attribute to the right
	// query. Zero falls back to Party.Tag, and a fresh query ID is
	// minted if observation is active with neither set. Tags are
	// process-local bookkeeping only — never on the wire.
	Tag obs.QueryTag
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
// planner accepts is compiled (with the same options, including any
// forced backend) and the one with the smallest total estimate wins;
// ties keep the planner's first candidate, which is the tree the
// pre-costing planner would have picked.
func ExplainOpts(q *Query, ringBits int, opts Options) (*Plan, error) {
	switch opts.Backend {
	case "", BackendPSIOEP, BackendGC:
	default:
		return nil, fmt.Errorf("core: unknown backend %q (want auto, psi-oep or gc)", opts.Backend)
	}
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

// nodeState is the public protocol state of one tree node during
// compilation: everything the cost model and operator dispatch depend
// on, and nothing data-dependent.
type nodeState struct {
	schema relation.Schema
	n      int
	plain  bool
	holder mpc.Role
}

// circuitCost prices the messages of one slot-built garbled circuit; an
// empty relation runs no circuit at all. The operator circuits are one
// gadget and a slot count, so building one to read its dimensions costs
// the same at any size.
func circuitCost(c *gc.Circuit) int64 {
	if c.Slots == 0 {
		return 0
	}
	return gc.DimsOf(c).MessageCost()
}

func revealCost(n, cols, ell int, withRows bool) int64 {
	v := 0
	if withRows {
		v = 1
	}
	return cachedCost(costKey{op: "reveal", m: cols, n: n, ell: ell, variant: v}, func() int64 {
		return circuitCost(buildRevealCircuit(n, cols, ell, withRows))
	})
}

// compileTree compiles q over one rooted join tree, mirroring the
// three-phase driver on nodeState. opts.EstOut sizes the join-phase
// estimates only; the step sequence is independent of it, so a plan
// compiled with EstOut=0 produces the same trace shape as one compiled
// with the true output size.
func compileTree(q *Query, tree *jointree.Tree, ringBits int, opts Options) (*Plan, error) {
	estOut, chunk := opts.EstOut, opts.ChunkSize
	if chunk == 0 {
		chunk = relation.DefaultChunkSize()
	}
	if chunk <= 0 {
		chunk = relation.Unbounded
	}
	ell := ringBits
	plan := &Plan{Root: q.Inputs[tree.Root].Name, EstOut: estOut, ChunkSize: chunk,
		tree: tree, singleNode: -1}
	// Room for every step a node can contribute: the candidate trees of
	// one ExplainOpts are all compiled, so regrowing here is what a warm
	// plan mostly costs.
	steps := make([]PlanStep, 0, 10*len(q.Inputs)+3)
	add := func(s PlanStep) { steps = append(steps, s) }
	// needOT tracks which OT-extension directions the plan uses, indexed
	// by the sending role; matching setup steps are prepended at the end.
	var needOT [2]bool

	outSet := map[relation.Attr]bool{}
	for _, a := range q.Output {
		outSet[a] = true
	}
	state := make([]nodeState, len(q.Inputs))
	for i, in := range q.Inputs {
		state[i] = nodeState{schema: in.Schema, n: in.N, plain: !q.NoLocalOptimizations, holder: in.Owner}
		if q.NoLocalOptimizations {
			add(PlanStep{Phase: "input", Op: "share-annotations", Node: in.Name, N: in.N,
				EstBytes: int64(8 * in.N), kind: stepShareInput, node: i})
		} else {
			add(PlanStep{Phase: "input", Op: "plain-input", Node: in.Name, N: in.N,
				kind: stepPlainInput, node: i})
		}
	}

	// Semijoin and aggregate steps are priced by a backend auction (see
	// backend.go): every applicable backend bids its byte estimate plus
	// precompute demands — every OT batch (in execution order) and every
	// garbled circuit the operator will run — and the winner's demands
	// replay the exact dispatch logic of the operators (aggregate.go,
	// semijoin.go), so Precompute can garble and fill pools from the
	// plan alone. chooseAgg and chooseSemijoin merge the winner's
	// OT-extension directions into needOT.
	chooseAgg := func(st nodeState, kind mergeKind) (backendBid, []BackendChoice) {
		bid, alts := pickBackend(aggBids(st, kind, ell), opts.Backend)
		needOT[0] = needOT[0] || bid.needs[0]
		needOT[1] = needOT[1] || bid.needs[1]
		return bid, alts
	}
	chooseSemijoin := func(par, child nodeState) (backendBid, []BackendChoice) {
		bid, alts := pickBackend(semijoinBids(par, child, ell), opts.Backend)
		needOT[0] = needOT[0] || bid.needs[0]
		needOT[1] = needOT[1] || bid.needs[1]
		return bid, alts
	}
	// revealRowsCost prices the §6.3 step-1 reveal of one relation.
	revealRowsCost := func(st nodeState) (int64, []preOT, []preCirc) {
		if st.n == 0 {
			return 0, nil, nil
		}
		cols := len(st.schema.Attrs)
		if st.plain {
			if st.holder == mpc.Bob {
				return int64(8 * st.n * cols), nil, nil
			}
			return 0, nil, nil
		}
		needOT[mpc.Bob] = true
		n := st.n
		withRows := st.holder == mpc.Bob
		circs := []preCirc{{mpc.Bob,
			func() *gc.Circuit { return buildRevealCircuit(n, cols, ell, withRows) }}}
		ots := []preOT{{sender: mpc.Bob, m: n * ell}}
		return revealCost(n, cols, ell, withRows), ots, circs
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
		bid, alts := chooseAgg(state[i], mergeSum)
		add(PlanStep{Phase: "reduce", Op: "aggregate", Node: q.Inputs[i].Name,
			N: state[i].n, EstBytes: bid.cost, Backend: bid.id, Alternatives: alts,
			kind: stepAggregate, node: i, attrs: fPrime, intoPending: subset,
			preOTs: bid.ots, preCircs: bid.circs})
		state[i].schema = relation.MustSchema(fPrime...)
		if subset {
			bid, alts := chooseSemijoin(state[parent], state[i])
			add(PlanStep{Phase: "reduce", Op: "semijoin-into", Node: q.Inputs[i].Name + "→" + q.Inputs[parent].Name,
				N: state[parent].n, EstBytes: bid.cost, Backend: bid.id, Alternatives: alts,
				kind: stepSemijoinInto, parent: parent,
				preOTs: bid.ots, preCircs: bid.circs})
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
		bid, alts := chooseAgg(state[i], mergeSum)
		add(PlanStep{Phase: "aggregate", Op: "aggregate", Node: q.Inputs[i].Name,
			N: state[i].n, EstBytes: bid.cost, Backend: bid.id, Alternatives: alts,
			kind: stepAggregate, node: i, attrs: keep,
			preOTs: bid.ots, preCircs: bid.circs})
		state[i].schema = relation.MustSchema(keep...)
	}

	if len(remaining) == 1 {
		// Single-survivor shortcut (§8.1): reveal rows and annotations.
		r := remaining[0]
		plan.singleNode = r
		cost, ots, circs := revealRowsCost(state[r])
		add(PlanStep{Phase: "reveal", Op: "reveal-relation", Node: q.Inputs[r].Name,
			N: state[r].n, EstBytes: cost + int64(8*state[r].n),
			kind: stepRevealRelation, node: r, final: true,
			preOTs: ots, preCircs: circs})
		return plan.seal(steps, needOT), nil
	}

	// Phase 2: Semijoin — π¹ on the filter side plus the semijoin itself.
	semijoin := func(target, by int) {
		shared := state[target].schema.Intersect(state[by].schema)
		bid, alts := chooseAgg(state[by], mergeOr)
		add(PlanStep{Phase: "semijoin", Op: "project-one", Node: q.Inputs[by].Name,
			N: state[by].n, EstBytes: bid.cost, Backend: bid.id, Alternatives: alts,
			kind: stepProjectOne, node: by, attrs: shared,
			preOTs: bid.ots, preCircs: bid.circs})
		ind := nodeState{schema: relation.MustSchema(shared...), n: state[by].n,
			plain: state[by].plain, holder: state[by].holder}
		bid, alts = chooseSemijoin(state[target], ind)
		add(PlanStep{Phase: "semijoin", Op: "semijoin-into", Node: q.Inputs[by].Name + "→" + q.Inputs[target].Name,
			N: state[target].n, EstBytes: bid.cost, Backend: bid.id, Alternatives: alts,
			kind: stepSemijoinInto, parent: target,
			preOTs: bid.ots, preCircs: bid.circs})
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
		cost, ots, circs := revealRowsCost(state[i])
		add(PlanStep{Phase: "join", Op: "reveal-rows", Node: q.Inputs[i].Name,
			N: state[i].n, EstBytes: cost,
			kind: stepRevealRows, node: i,
			preOTs: ots, preCircs: circs})
	}
	add(PlanStep{Phase: "join", Op: "local-join", Node: joinLabel,
		N: estOut, EstBytes: 8, kind: stepLocalJoin})
	for _, i := range order {
		var est int64
		if estOut > 0 {
			est = oep.Cost(state[i].n, estOut, false)
		}
		add(PlanStep{Phase: "join", Op: "align-annotations", Node: q.Inputs[i].Name,
			N: estOut, EstBytes: est, kind: stepAlignAnnotations, node: i})
	}
	add(PlanStep{Phase: "join", Op: "annotation-product", Node: joinLabel,
		N: estOut, EstBytes: productTreeCost(estOut, len(order), ell), kind: stepAnnotationProduct})
	add(PlanStep{Phase: "reveal", Op: "reveal-annotations", Node: "result",
		N: estOut, EstBytes: int64(8 * estOut), kind: stepRevealAnnotations, final: true})
	return plan.seal(steps, needOT), nil
}

// seal prepends the base-OT setup steps for every OT direction the plan
// uses and totals the estimates. Setup is priced per direction; when a
// composed query reuses a party's existing OT sessions the setup steps
// execute as free cache hits.
func (p *Plan) seal(steps []PlanStep, needOT [2]bool) *Plan {
	all := make([]PlanStep, 0, 2+len(steps))
	for _, r := range []mpc.Role{mpc.Alice, mpc.Bob} {
		if needOT[r] {
			all = append(all, PlanStep{Phase: "setup", Op: "base-ot", Node: r.String() + " sends",
				EstBytes: ot.SetupCost(), kind: stepOTSetup, sender: r})
		}
	}
	p.Steps = append(all, steps...)
	p.EstBytes = 0
	for i := range p.Steps {
		s := &p.Steps[i]
		s.Chunks = relation.NumChunks(s.N, p.ChunkSize)
		p.EstBytes += s.EstBytes
		// Phase split: base OTs move entirely offline; for every other
		// step, offline carries its OT batches' correction matrices and
		// online keeps the remainder plus the derandomization bits.
		if s.kind == stepOTSetup {
			s.EstOfflineBytes = s.EstBytes
		} else {
			// A pooled batch trades its correction matrix for one
			// derandomization bit per OT, chosen-message and random
			// (ot.RandomCost) batches alike.
			var saved int64
			for _, d := range s.preOTs {
				s.EstOfflineBytes += ot.ExtOfflineCost(d.m)
				saved += ot.ExtCost(d.m, d.width()) - ot.ExtOnlineCost(d.m, d.width())
			}
			s.EstOnlineBytes = s.EstBytes - saved
		}
		p.EstOfflineBytes += s.EstOfflineBytes
		p.EstOnlineBytes += s.EstOnlineBytes
	}
	return p
}
