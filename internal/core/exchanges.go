package core

import (
	"fmt"
	"sync"

	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/oep"
	"secyan/internal/ot"
	"secyan/internal/psi"
)

// This file holds a plan step's exchanges and the one decision of each
// operator. Which protocol an operator runs follows from public state
// (nodeState), so one function per operator picks its variant and
// declares its exchanges in execution order: mergeStep, semijoinStep,
// revealStep, joinStep. The compiler records both on the PlanStep; the
// estimates, setup steps and Precompute's sweeps read the list. The
// executor runs the step through a cursor over the same list: the
// operator switches on the variant, and each exchange kind's run helper
// takes the next exchange, checks it against what the run is about to
// move, and only then moves it.

// exchange is one unit of a plan step's traffic: an OT-extension batch,
// a product batch, a garbled circuit, a KKRT batch or plain bytes. A
// circuit exchange stands for the circuit's messages and its
// input-label batch, a Δ-OT batch of Dims.EvalInputs labels with the
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
	// build defers construction to the run and to Precompute, which
	// both build the circuit from this one closure.
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

func (x exchange) String() string {
	return fmt.Sprintf("%s{sender %v, m %d, msgLen %d, ell %d}",
		[...]string{"ot", "product", "circuit", "kkrt", "plain"}[x.kind], x.sender, x.m, x.msgLen, x.ell)
}

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

// productBatch is the one batch of cursor.products over n > 0 products
// of `terms` terms each (ot.SendProducts).
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

// ExchangeError reports a step whose run departs from its declared
// exchanges: the exchange the run is about to move differs in kind,
// sender (or garbler), size or width, or the step ends with exchanges
// left over. It is raised before anything of that exchange is sent.
type ExchangeError struct {
	Step   string // phase/op[node]
	Index  int    // the exchange's index in the step's list
	Reason string
}

func (e *ExchangeError) Error() string {
	return fmt.Sprintf("core: exchange %d: %s", e.Index, e.Reason)
}

// cursor runs one plan step; i is the next exchange.
type cursor struct {
	p  *mpc.Party
	st *PlanStep
	i  int
}

func (c *cursor) fail(i int, format string, args ...any) error {
	return &ExchangeError{Step: c.st.label(), Index: i, Reason: fmt.Sprintf(format, args...)}
}

// take returns the next exchange once it matches want in kind, sender,
// size and width — and in dims where want has them. A product batch's
// terms are the plan's to choose (one for a plain factor).
func (c *cursor) take(want exchange) (exchange, error) {
	if c.i == len(c.st.exchanges) {
		return exchange{}, c.fail(c.i, "the step declares %d exchanges, the run moves another %v", c.i, want)
	}
	x := c.st.exchanges[c.i]
	if x.kind != want.kind || x.sender != want.sender || x.m != want.m || x.msgLen != want.msgLen ||
		x.ell != want.ell || want.dims != nil && *x.dims != *want.dims {
		return exchange{}, c.fail(c.i, "declared %v, the run moves %v", x, want)
	}
	c.i++
	return x, nil
}

// done fails a step that ran with exchanges left over.
func (c *cursor) done() error {
	if n := len(c.st.exchanges); c.i < n {
		return c.fail(c.i, "the run moved %d of the step's %d exchanges", c.i, n)
	}
	return nil
}

// oep runs the next exchange as an OEP from m to n shares, a bijection
// or an extended permutation: programmed by xi on the side that holds
// it, and nil on the helper's, whose party is the OT sender.
func (c *cursor) oep(xi []int, m, n int, shares []uint64, bijection bool) ([]uint64, error) {
	sender := c.p.Role
	if xi != nil {
		sender = sender.Other()
	}
	if _, err := c.take(oepBatch(sender, m, n, c.p.Ring.Bits, bijection)); err != nil {
		return nil, err
	}
	switch {
	case xi == nil && bijection:
		return oep.RunPermuteHelper(c.p, n, shares)
	case xi == nil:
		return oep.RunHelper(c.p, m, n, shares)
	case bijection:
		return oep.RunPermuteProgrammer(c.p, xi, shares)
	}
	return oep.RunProgrammer(c.p, xi, m, shares)
}

// products runs the next exchange as the product batch of aligned share
// vectors a and b, recvRole its OT receiver: a fresh sharing of a_i ⊗
// b_i. Each party multiplies its own two shares locally, and the batch
// (ot.SendProducts, Gilboa's OT product at ℓ − k bits for bit k) adds
// the cross terms of (a₀+a₁)(b₀+b₁): recvRole's b times the other
// party's a, and recvRole's a times its b. When a is plain (§6.5), as a
// batch of one term declares, the other party's a is zero, so only the
// second term runs. The sender's share is uniform, which makes the
// sharing fresh. No products are no batch.
func (c *cursor) products(a, b []uint64, recvRole mpc.Role) ([]uint64, error) {
	p := c.p
	if len(a) == 0 {
		return nil, nil
	}
	x, err := c.take(exchange{kind: exProduct, sender: recvRole.Other(), m: len(a), ell: uint8(p.Ring.Bits)})
	if err != nil {
		return nil, err
	}
	// The party's factors, term by term: the receiver's b meets the
	// sender's a, then the receiver's a the sender's b.
	terms := [][]uint64{a, b}
	if p.Role == recvRole {
		terms = [][]uint64{b, a}
	}
	terms = terms[2-x.terms:]
	var cross []uint64
	if p.Role == recvRole {
		var rcv *ot.Receiver
		if rcv, err = p.OTReceiver(); err == nil {
			cross, err = rcv.ReceiveProducts(p.Ring.Bits, terms...)
		}
	} else {
		var snd *ot.Sender
		if snd, err = p.OTSender(); err == nil {
			cross, err = snd.SendProducts(p.Ring.Bits, terms...)
		}
	}
	if err != nil {
		return nil, err
	}
	for i := range cross {
		cross[i] = p.Ring.Mask(cross[i] + a[i]*b[i])
	}
	return cross, nil
}

// circuit runs the next exchange as the circuit its own build makes,
// garbled by garbler: evalBits (the evaluator's) or priv (the
// garbler's private bits) are checked against it first.
func (c *cursor) circuit(garbler mpc.Role, evalBits, priv []bool) ([]bool, error) {
	x, err := c.take(exchange{kind: exCircuit, sender: garbler})
	if err != nil {
		return nil, err
	}
	circ := x.build()
	want := circ.Slots * len(circ.EvalInputs)
	if c.p.Role == garbler {
		want = circ.Slots * circ.NumPrivate
	}
	if got := len(evalBits) + len(priv); got != want {
		return nil, c.fail(c.i-1, "the circuit takes %d input bits of this party, the run has %d", want, got)
	}
	return c.p.RunCircuit(circ, evalBits, priv, garbler)
}

// psi takes the next exchanges as one PSI of m receiver and n sender
// elements (psiExchanges); the caller then runs the PSI.
func (c *cursor) psi(sender mpc.Role, m, n int, indexed bool) error {
	var buf [7]exchange
	for _, want := range psiExchanges(buf[:0], psi.NewParams(m, n), sender, c.p.Ring.Bits, indexed) {
		if _, err := c.take(want); err != nil {
			return err
		}
	}
	return nil
}

// variant is the protocol an operator step runs, as its decision
// function picks it from public state.
type variant uint8

const (
	varLocal      variant = iota // nothing moves: the holder knows the annotations (§6.5), or there are no rows
	varPlain                     // plain bytes only: a size, revealed annotations, or Bob's plain rows
	varCircuit                   // the reveal's zero-test circuit
	varOblivious                 // OEPs and π¹'s circuit, or the join's alignment OEP or product levels
	varZero                      // semijoin of an empty child: the aligned annotations are zero
	varScalar                    // semijoin of an attribute-less child: one OEP broadcasts its annotation
	varSameParty                 // semijoin within one holder: one OEP over its local index map
	varPSI                       // cross-party semijoin of a plain child: the direct PSI carries the annotation (§5.3)
	varIndexedPSI                // cross-party semijoin of a shared child: the PSI carries an index (§5.5)
)

// mergeStep decides an aggregation (π^⊕ or π¹) of st: local while the
// holder knows the annotations (§6.5) or there are none, else
// oblivious. The holder programs both OEPs and evaluates π¹'s circuit,
// so the other party sends every batch: the sort OEP, then the
// group-shift OEP or the merge circuit's label batch.
func mergeStep(st nodeState, kind mergeKind, ell int) (variant, []exchange) {
	if st.plain || st.n == 0 {
		return varLocal, nil
	}
	n, helper := st.n, st.holder.Other()
	sortOEP := oepBatch(helper, n, n, ell, true)
	ex := []exchange{sortOEP, sortOEP}
	if kind == mergeOr {
		ex[1] = circuit(helper, projectOneDims(n, ell),
			func() *gc.Circuit { return buildProjectOneCircuit(n, ell) })
	}
	return varOblivious, ex
}

// semijoinStep decides parent ⋈^⊗ child (§6.2). A cross-party
// alignment ends its PSI with one OEP from the bins to the parent's
// tuples, programmed by the parent holder. Every variant ends in one
// product batch the parent's other party sends, of one term per product
// while the parent is plain.
func semijoinStep(par, child nodeState, ell int) (v variant, ex []exchange) {
	switch {
	case child.n == 0:
		v = varZero
	case len(child.schema.Attrs) == 0:
		v, ex = varScalar, []exchange{oepBatch(par.holder.Other(), child.n, par.n, ell, false)}
	case par.holder == child.holder:
		v, ex = varSameParty, []exchange{oepBatch(par.holder.Other(), child.n+1, par.n, ell, false)}
	default:
		v = varIndexedPSI
		if child.plain {
			v = varPSI
		}
		pr := psi.NewParams(par.n, child.n)
		ex = psiExchanges(make([]exchange, 0, 9), pr, child.holder, ell, v == varIndexedPSI)
		ex = append(ex, oepBatch(child.holder, pr.B, par.n, ell, false))
	}
	if par.n > 0 {
		terms := 2
		if par.plain {
			terms = 1
		}
		ex = append(ex, productBatch(par.holder.Other(), par.n, ell, terms))
	}
	return v, ex
}

// psiExchanges appends one PSI with the given PSI sender to ex: its
// bins (psi.Demand: seed, KKRT batch, hint, the receiver's ρ-OT, the
// sender's circuit), and for the indexed PSI (§5.5) the OEPs ξ1, which
// the PSI sender programs, before them and ξ2 after.
func psiExchanges(ex []exchange, pr psi.Params, sender mpc.Role, ell int, indexed bool) []exchange {
	d := pr.Demands(ell, indexed)
	v, npb := 0, pr.N+pr.B
	if indexed {
		v = 1
		ex = append(ex, oepBatch(sender.Other(), npb, npb, ell, true))
	}
	dims := cachedDims(dimsKey{op: "psi", m: pr.M, n: pr.N, ell: ell, variant: v}, func() gc.Dims {
		return gc.DimsOf(d.Circuit())
	})
	ex = append(ex, plainBytes(d.Seed), exchange{kind: exKKRT, sender: sender, m: pr.B}, plainBytes(d.Hint),
		otBatch(sender.Other(), pr.B, d.RhoLen), circuit(sender, dims, d.Circuit))
	if indexed {
		ex = append(ex, oepBatch(sender, npb, pr.B, ell, false))
	}
	return ex
}

// revealStep decides the §6.3 reveal of st's nonzero rows to Alice, or
// with a scale > 0 RevealRatio's: local without rows or for plain rows
// Alice holds, plain for plain rows Bob sends, else Bob's circuit.
func revealStep(st nodeState, ell int, scale uint64) (variant, []exchange) {
	n, cols := st.n, len(st.schema.Attrs)
	switch {
	case n == 0 || st.plain && st.holder == mpc.Alice:
		return varLocal, nil
	case st.plain:
		return varPlain, []exchange{plainBytes(8 * n * cols)}
	}
	withRows := st.holder == mpc.Bob
	return varCircuit, []exchange{circuit(mpc.Bob, revealDims(n, cols, ell, withRows, scale),
		func() *gc.Circuit { return buildRevealCircuit(n, cols, ell, withRows, scale) })}
}

// joinStep decides a step sized by the join's output (outSized) at out:
// EstOut when compiled, the true OUT when run. n is the size of the
// relation an alignment aligns, k the number of joined relations.
// Alice programs every alignment OEP, so Bob is its OT sender.
func joinStep(kind stepKind, n, k, out, ell int) (variant, []exchange) {
	switch {
	case kind == stepLocalJoin:
		return varPlain, []exchange{plainBytes(8)}
	case kind == stepRevealAnnotations:
		return varPlain, []exchange{plainBytes(8 * out)}
	case out == 0:
		return varLocal, nil
	case kind == stepAlignAnnotations:
		return varOblivious, []exchange{oepBatch(mpc.Bob, n, out, ell, false)}
	}
	return varOblivious, productBatches(out, k, ell)
}

// productBatches declares productTree's levels over k vectors of n
// shares: one two-term batch per level of pairs, Bob sending.
func productBatches(n, k, ell int) []exchange {
	var ex []exchange
	for ; k > 1; k = (k + 1) / 2 {
		ex = append(ex, productBatch(mpc.Bob, n*(k/2), ell, 2))
	}
	return ex
}

// runOp runs an operator outside a plan, as the exported entry points
// do, on the step decided for its relations' public fields.
func runOp[T any](p *mpc.Party, op string, v variant, ex []exchange, f func(*cursor) (T, error)) (T, error) {
	c := &cursor{p: p, st: &PlanStep{Op: op, variant: v, exchanges: ex}}
	res, err := f(c)
	if err == nil {
		err = c.done()
	}
	return res, err
}

// dimsCache memoizes the circuit dimensions: candidate-tree enumeration
// in ExplainOpts prices the same (size, width) pairs repeatedly, and
// interpolation garbles probe circuits.
var dimsCache sync.Map

type dimsKey struct {
	op      string
	m, n    int
	ell     int
	variant int
	scale   uint64
}

func cachedDims(k dimsKey, f func() gc.Dims) *gc.Dims {
	if v, ok := dimsCache.Load(k); ok {
		return v.(*gc.Dims)
	}
	v := f()
	dimsCache.Store(k, &v)
	return &v
}

// projectOneDims returns the dimensions of π¹'s merge circuit. The merge
// chain threads a running indicator through every tuple, so it is one
// slot of n tuples, affine in n from n = 1.
func projectOneDims(n, ell int) *gc.Dims {
	return cachedDims(dimsKey{op: "project-one", n: n, ell: ell}, func() gc.Dims {
		return gc.InterpolateDims(func(m int) *gc.Circuit { return buildProjectOneCircuit(m, ell) }, n)
	})
}

// revealDims returns the dimensions of the reveal circuit of n rows.
// It is slot-built: one gadget and a slot count, so building it to read
// its dimensions costs the same at any size.
func revealDims(n, cols, ell int, withRows bool, scale uint64) *gc.Dims {
	v := 0
	if withRows {
		v = 1
	}
	return cachedDims(dimsKey{op: "reveal", m: cols, n: n, ell: ell, variant: v, scale: scale}, func() gc.Dims {
		return gc.DimsOf(buildRevealCircuit(n, cols, ell, withRows, scale))
	})
}
