package gc

// Dims summarizes the size-determining dimensions of a circuit: exactly
// the quantities that appear in the protocol's message lengths. The
// plan compiler in internal/core predicts operator traffic from Dims
// without garbling anything.
type Dims struct {
	// Ands and AndGs count the AND and ANDG gates, which the garbled
	// tables are made of (AndTableBits, AndGTableBits).
	Ands           int
	AndGs          int
	GarblerInputs  int
	EvalInputs     int
	EvalOutputs    int
	GarblerOutputs int
	PayloadBytes   int
}

// DimsOf extracts the wire-cost dimensions of a built circuit: totals
// over all of its slots.
func DimsOf(c *Circuit) Dims {
	_, pb := c.payloadShape()
	return Dims{
		Ands:           c.Slots * c.NumAnd,
		AndGs:          c.Slots * c.NumAndG,
		GarblerInputs:  c.Slots * len(c.GarblerInputs),
		EvalInputs:     c.Slots * len(c.EvalInputs),
		EvalOutputs:    c.Slots * len(c.EvalOutputs),
		GarblerOutputs: c.Slots * len(c.GarblerOutputs),
		PayloadBytes:   c.Slots * pb,
	}
}

// MessageCost returns the total bytes (both directions) of the messages
// RunGarbler/RunEvaluator exchange for a circuit with these dimensions,
// besides the evaluator-input label batch: the garbled-tables message
// (payload ciphertexts included) and the masked garbler-output bits if
// any. The label batch is a Δ-OT batch of EvalInputs labels, priced by
// ot's closed forms like every other: ot.ExtOfflineCost direct,
// ot.RandomOnlineCost online when pooled.
func (d Dims) MessageCost() int64 {
	_, _, tables := tableLayout(d.Ands, d.AndGs)
	cost := int64(tables + 16 + 16*d.GarblerInputs + (d.EvalOutputs+7)/8 + d.PayloadBytes)
	if d.GarblerOutputs > 0 {
		cost += int64((d.GarblerOutputs + 7) / 8)
	}
	return cost
}

func (d Dims) sub(o Dims) Dims {
	return Dims{
		Ands:           d.Ands - o.Ands,
		AndGs:          d.AndGs - o.AndGs,
		GarblerInputs:  d.GarblerInputs - o.GarblerInputs,
		EvalInputs:     d.EvalInputs - o.EvalInputs,
		EvalOutputs:    d.EvalOutputs - o.EvalOutputs,
		GarblerOutputs: d.GarblerOutputs - o.GarblerOutputs,
		PayloadBytes:   d.PayloadBytes - o.PayloadBytes,
	}
}

func (d Dims) add(o Dims, k int) Dims {
	return Dims{
		Ands:           d.Ands + k*o.Ands,
		AndGs:          d.AndGs + k*o.AndGs,
		GarblerInputs:  d.GarblerInputs + k*o.GarblerInputs,
		EvalInputs:     d.EvalInputs + k*o.EvalInputs,
		EvalOutputs:    d.EvalOutputs + k*o.EvalOutputs,
		GarblerOutputs: d.GarblerOutputs + k*o.GarblerOutputs,
		PayloadBytes:   d.PayloadBytes + k*o.PayloadBytes,
	}
}

// interpolateProbe is the smallest size InterpolateDims probes at. The
// circuits still priced by interpolation are single-slot graphs that
// grow with the tuple count — the π¹ merge chain threads one running
// indicator through every tuple — and add the same gates per further
// tuple from the first on, so Dims is affine in n from n = 1 and the
// probes can be tiny. (Circuits that repeat an independent gadget per
// tuple or bin are slot-built and need no interpolation: DimsOf(build(n))
// costs the same at any n.)
const interpolateProbe = 1

// InterpolateDims returns DimsOf(build(n)) without materializing large
// circuits, for circuits whose Dims is affine in n: instances up to the
// probe sizes are built outright; larger ones are extrapolated from two
// consecutive probes, which is exact when the per-tuple structure is
// size-independent.
func InterpolateDims(build func(n int) *Circuit, n int) Dims {
	if n <= interpolateProbe+1 {
		return DimsOf(build(n))
	}
	first := DimsOf(build(interpolateProbe))
	step := DimsOf(build(interpolateProbe + 1)).sub(first)
	return first.add(step, n-interpolateProbe)
}
