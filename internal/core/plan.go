package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"secyan/internal/jointree"
	"secyan/internal/mpc"
	"secyan/internal/ot"
	"secyan/internal/relation"
)

// This file is the plan compiler: the single place that decides which
// operators a query executes and which variant of each. ExplainOpts
// walks the three Yannakakis phases over public parameters only
// (schemas, sizes, owners, plainness) and asks each operator's decision
// function (exchanges.go) for its variant and exchanges, so both
// parties — and Explain — derive the identical Plan; the executor in
// exec.go then runs each step's exchanges without re-deciding anything.
// Per-step estimates come from the cost models of the ot, gc, oep and
// psi packages, which are pinned byte-exact to measured traffic by their
// own tests, so EstBytes is a prediction of the wire, not a heuristic.

// stepKind discriminates the executor action behind a plan step.
type stepKind int

const (
	stepOTSetup stepKind = iota
	stepOPRFSetup
	stepInput
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
	// OT-extension correction matrices, online keeps everything else plus
	// ⌈m/8⌉ derandomization bits per pooled batch (so the two may sum to
	// slightly more than EstBytes, while online alone never exceeds it).
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

	// variant and exchanges are the operator's decision (exchanges.go):
	// the protocol it runs and its traffic in execution order.
	variant   variant
	exchanges []exchange
}

// label names the step as its errors do: phase/op[node].
func (s *PlanStep) label() string { return s.Phase + "/" + s.Op + "[" + s.Node + "]" }

// setup reports whether the step establishes an OT extension (base-ot,
// oprf-base) rather than running an operator.
func (s *PlanStep) setup() bool { return s.kind == stepOTSetup || s.kind == stepOPRFSetup }

// outSized reports whether the step scales with the join's output size,
// which only the run learns: joinStep declares its exchanges at EstOut
// and at the true OUT; they run direct, outside the setup steps and the
// precompute sweeps.
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
		io.WriteString(h, "|"+p.Steps[i].label())
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

// nodeState is the public protocol state of one tree node: all the
// operators' decisions depend on, and nothing data-dependent.
type nodeState struct {
	schema relation.Schema
	n      int
	plain  bool
	holder mpc.Role
}

// compileTree compiles q over one rooted join tree, running the three
// phases on nodeState. opts.EstOut sizes the join-phase estimates only;
// the step sequence is independent of it.
func compileTree(q *Query, tree *jointree.Tree, ringBits int, opts Options) (*Plan, error) {
	estOut := opts.EstOut
	ell := ringBits
	plan := &Plan{Root: q.Inputs[tree.Root].Name, EstOut: estOut, tree: tree, singleNode: -1}
	// Room for every step a node can contribute: every candidate tree is
	// compiled, so regrowing here is what a warm plan mostly costs.
	steps := make([]PlanStep, 0, 10*len(q.Inputs)+3)
	add := func(s PlanStep) { steps = append(steps, s) }

	outSet := map[relation.Attr]bool{}
	for _, a := range q.Output {
		outSet[a] = true
	}
	state := make([]nodeState, len(q.Inputs))
	for i, in := range q.Inputs {
		state[i] = nodeState{schema: in.Schema, n: in.N, plain: !q.NoLocalOptimizations, holder: in.Owner}
		// Plain (§6.5), moving nothing, or shared by one message.
		s := PlanStep{Phase: "input", Op: "plain-input", Node: in.Name, N: in.N, kind: stepInput, node: i}
		if q.NoLocalOptimizations {
			s.Op, s.variant, s.exchanges = "share-annotations", varPlain, []exchange{plainBytes(8 * in.N)}
		}
		add(s)
	}

	// aggregate adds the π^⊕ or π¹ of node i over attrs.
	aggregate := func(s PlanStep, i int, attrs []relation.Attr, kind mergeKind) {
		s.N, s.node, s.attrs = state[i].n, i, attrs
		s.variant, s.exchanges = mergeStep(state[i], kind, ell)
		add(s)
	}
	// semijoinInto adds parent ⋈^⊗ child; the parent's annotations are
	// shared from then on.
	semijoinInto := func(phase string, parent int, node string, child nodeState) {
		s := PlanStep{Phase: phase, Op: "semijoin-into", Node: node + "→" + q.Inputs[parent].Name,
			N: state[parent].n, kind: stepSemijoinInto, parent: parent}
		s.variant, s.exchanges = semijoinStep(state[parent], child, ell)
		add(s)
		state[parent].plain = false
	}

	// Phase 1: Reduce (§6.4 step 1) on public state.
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
		aggregate(PlanStep{Phase: "reduce", Op: "aggregate", Node: q.Inputs[i].Name,
			kind: stepAggregate, intoPending: subset}, i, fPrime, mergeSum)
		state[i].schema = relation.MustSchema(fPrime...)
		if subset {
			semijoinInto("reduce", parent, q.Inputs[i].Name, state[i])
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

	// Soundness guards: the planner only emits trees satisfying these,
	// but they are cheap and catch planner regressions.
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
		aggregate(PlanStep{Phase: "aggregate", Op: "aggregate", Node: q.Inputs[i].Name, kind: stepAggregate},
			i, keep, mergeSum)
		state[i].schema = relation.MustSchema(keep...)
	}

	if len(remaining) == 1 {
		// Single-survivor shortcut (§8.1): reveal rows and annotations.
		r := remaining[0]
		plan.singleNode = r
		s := PlanStep{Phase: "reveal", Op: "reveal-relation", Node: q.Inputs[r].Name,
			N: state[r].n, kind: stepRevealRelation, node: r, final: true}
		s.variant, s.exchanges = revealStep(state[r], ell, 0)
		s.exchanges = append(s.exchanges, plainBytes(8*state[r].n))
		add(s)
		return plan.seal(steps), nil
	}

	// Phase 2: Semijoin — π¹ on the filter side plus the semijoin itself.
	semijoin := func(target, by int) {
		shared := state[target].schema.Intersect(state[by].schema)
		aggregate(PlanStep{Phase: "semijoin", Op: "project-one", Node: q.Inputs[by].Name, kind: stepProjectOne},
			by, shared, mergeOr)
		ind := state[by]
		ind.schema = relation.MustSchema(shared...)
		semijoinInto("semijoin", target, q.Inputs[by].Name, ind)
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
	// so each gets its own trace record, over the nodes in sorted order.
	order := append([]int(nil), remaining...)
	sort.Ints(order)
	plan.joinOrder = order
	joinLabel := strings.Join(plan.Remaining, "⋈")
	for _, i := range order {
		s := PlanStep{Phase: "join", Op: "reveal-rows", Node: q.Inputs[i].Name,
			N: state[i].n, kind: stepRevealRows, node: i}
		s.variant, s.exchanges = revealStep(state[i], ell, 0)
		add(s)
	}
	// The steps sized by the output, priced at EstOut.
	outSized := func(s PlanStep) {
		s.N = estOut
		s.variant, s.exchanges = joinStep(s.kind, state[s.node].n, len(order), estOut, ell)
		add(s)
	}
	outSized(PlanStep{Phase: "join", Op: "local-join", Node: joinLabel, kind: stepLocalJoin})
	for _, i := range order {
		outSized(PlanStep{Phase: "join", Op: "align-annotations", Node: q.Inputs[i].Name,
			kind: stepAlignAnnotations, node: i})
	}
	outSized(PlanStep{Phase: "join", Op: "annotation-product", Node: joinLabel, kind: stepAnnotationProduct})
	outSized(PlanStep{Phase: "reveal", Op: "reveal-annotations", Node: "result",
		kind: stepRevealAnnotations, final: true})
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
