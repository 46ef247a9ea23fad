// Package gcbaseline implements the comparison baseline of the paper's
// experiments (§8.2): evaluating the join-aggregate query with a single
// monolithic garbled circuit over the Cartesian product of the input
// relations, applying the join conditions inside the circuit — the
// approach an SMCQL-style engine is forced into when it must hide all
// intermediate sizes. Its circuit has Θ(Π|R_i|) gates, which is why the
// paper reports runtimes of centuries at 100 MB.
//
// Like the paper, we execute the real protocol only on very small inputs
// and extrapolate beyond: the cost is exactly proportional to the circuit
// size, which is known in closed form.
package gcbaseline

import (
	"fmt"
	"time"

	"secyan/internal/gc"
	"secyan/internal/mpc"
)

// JoinSpec describes the query shape for the baseline: the relations (in
// join order) and, for each adjacent pair constraint, the attribute
// positions compared. For the paper's queries every tuple participates in
// k-1 equality constraints over 64-bit keys.
type JoinSpec struct {
	// Sizes are the relation cardinalities |R_1| … |R_k|.
	Sizes []int
	// EqChecks is the number of 64-bit equality constraints per
	// combination (k-1 for a chain join).
	EqChecks int
	// Ell is the annotation width in bits.
	Ell int
}

// Combos returns the Cartesian-product size as a float (it overflows
// int64 at the paper's scales).
func (s JoinSpec) Combos() float64 {
	c := 1.0
	for _, n := range s.Sizes {
		c *= float64(n)
	}
	return c
}

// andGatesPerCombo is the circuit cost of one Cartesian combination:
// each equality is 64 XORs + a 63-AND tree, the match bit masks the
// ℓ-bit annotation product, and an ℓ-bit adder accumulates.
func (s JoinSpec) andGatesPerCombo() float64 {
	eq := float64(s.EqChecks * 63)
	mask := float64(s.Ell)
	acc := float64(s.Ell)
	mulChain := float64((len(s.Sizes) - 1) * s.Ell * s.Ell) // annotation products
	return eq + mask + acc + mulChain
}

// AndGates returns the total AND-gate count of the monolithic circuit.
func (s JoinSpec) AndGates() float64 {
	return s.Combos() * s.andGatesPerCombo()
}

// Cost is a (possibly extrapolated) execution cost. Seconds is a float
// because extrapolated baseline runtimes reach centuries (the paper's
// 100 MB Q3 estimate is ~300 years), beyond time.Duration's range.
type Cost struct {
	AndGates float64
	Seconds  float64
	Bytes    float64 // communication (garbled tables dominate)
	// Extrapolated is false when the numbers come from a real execution.
	Extrapolated bool
}

// Calibration holds measured per-gate constants from a real run.
type Calibration struct {
	SecondsPerGate float64
	BytesPerGate   float64
}

// DefaultCalibration is used when no measurement is available: ~10M
// garbled AND gates per second and 32 bytes per gate (two 128-bit
// ciphertexts), typical for fixed-key AES garbling on one core.
var DefaultCalibration = Calibration{SecondsPerGate: 1e-7, BytesPerGate: 32}

// Estimate extrapolates the baseline cost for spec.
func Estimate(spec JoinSpec, cal Calibration) Cost {
	gates := spec.AndGates()
	return Cost{
		AndGates:     gates,
		Seconds:      gates * cal.SecondsPerGate,
		Bytes:        gates * cal.BytesPerGate,
		Extrapolated: true,
	}
}

// buildCartesianCircuit constructs the real monolithic circuit for small
// inputs: Alice's relations enter as evaluator inputs, Bob's as
// garbler-private bits; for every combination the circuit checks all join
// conditions and accumulates the masked annotation product; the total
// aggregate is revealed to Alice.
//
// rels lists, per relation, the 64-bit join-key columns feeding the
// equality constraints; conds pairs (relation, column) sites that must be
// equal.
type Relation struct {
	Owner mpc.Role
	Keys  [][]uint64 // per tuple, the join-key values
	Annot []uint64
}

// Cond is one equality constraint between two relation columns.
type Cond struct {
	RelA, ColA int
	RelB, ColB int
}

// buildCircuit builds the Cartesian circuit; the input-bit assembly order
// is: per relation, per tuple, all key words then the annotation word
// (evaluator inputs for Alice-owned relations, garbler-private bits for
// Bob-owned).
func buildCircuit(rels []Relation, conds []Cond, ell int) (*gc.Circuit, error) {
	b := gc.NewBuilder()
	type wireTuple struct {
		keys  []gc.Word
		annot gc.Word
	}
	wires := make([][]wireTuple, len(rels))
	for ri, r := range rels {
		wires[ri] = make([]wireTuple, len(r.Keys))
		for ti := range r.Keys {
			wt := wireTuple{}
			for range r.Keys[ti] {
				if r.Owner == mpc.Alice {
					wt.keys = append(wt.keys, b.EvalInputWord(64))
				} else {
					priv := b.PrivateWord(64)
					// Materialize private keys as wires via XORG with a
					// zero word so they can feed Eq on either side.
					wt.keys = append(wt.keys, b.XORGWord(b.ConstWord(0, 64), priv))
				}
			}
			if r.Owner == mpc.Alice {
				wt.annot = b.EvalInputWord(ell)
			} else {
				wt.annot = b.XORGWord(b.ConstWord(0, ell), b.PrivateWord(ell))
			}
			wires[ri][ti] = wt
		}
	}

	// Enumerate the Cartesian product.
	idx := make([]int, len(rels))
	total := b.ConstWord(0, ell)
	for {
		match := b.Const1()
		for _, c := range conds {
			eq := b.Eq(wires[c.RelA][idx[c.RelA]].keys[c.ColA], wires[c.RelB][idx[c.RelB]].keys[c.ColB])
			match = b.AND(match, eq)
		}
		prod := wires[0][idx[0]].annot
		for ri := 1; ri < len(rels); ri++ {
			prod = b.Mul(prod, wires[ri][idx[ri]].annot)
		}
		total = b.Add(total, b.ANDWordBit(prod, match))
		// Advance the odometer.
		p := len(rels) - 1
		for p >= 0 {
			idx[p]++
			if idx[p] < len(rels[p].Keys) {
				break
			}
			idx[p] = 0
			p--
		}
		if p < 0 {
			break
		}
	}
	b.OutputWordToEval(total)
	return b.Build(), nil
}

// Run executes the real Cartesian-product garbled circuit and returns the
// total aggregate (to Alice) along with the measured cost. Only feasible
// for tiny inputs; the product of sizes is capped to keep the circuit in
// memory.
func Run(p *mpc.Party, rels []Relation, conds []Cond) (uint64, Cost, error) {
	combos := 1.0
	for _, r := range rels {
		combos *= float64(len(r.Keys))
		if len(r.Keys) == 0 {
			return 0, Cost{}, fmt.Errorf("gcbaseline: empty relation")
		}
	}
	if combos > 1<<22 {
		return 0, Cost{}, fmt.Errorf("gcbaseline: %v combinations exceed the real-execution cap; use Estimate", combos)
	}
	ell := p.Ring.Bits
	circ, err := buildCircuit(rels, conds, ell)
	if err != nil {
		return 0, Cost{}, err
	}

	var evalBits, privBits []bool
	for _, r := range rels {
		for ti := range r.Keys {
			for _, k := range r.Keys[ti] {
				if r.Owner == mpc.Alice {
					if p.Role == mpc.Alice {
						evalBits = gc.AppendBits(evalBits, k, 64)
					}
				} else if p.Role == mpc.Bob {
					privBits = gc.AppendBits(privBits, k, 64)
				}
			}
			if r.Owner == mpc.Alice {
				if p.Role == mpc.Alice {
					evalBits = gc.AppendBits(evalBits, r.Annot[ti], ell)
				}
			} else if p.Role == mpc.Bob {
				privBits = gc.AppendBits(privBits, r.Annot[ti], ell)
			}
		}
	}

	start := time.Now()
	before := p.Conn.Stats().TotalBytes()
	var result uint64
	if p.Role == mpc.Alice {
		out, err := p.RunCircuit(circ, evalBits, nil, mpc.Bob)
		if err != nil {
			return 0, Cost{}, err
		}
		result = p.Ring.Mask(gc.UintOfBits(out))
	} else {
		if _, err := p.RunCircuit(circ, nil, privBits, mpc.Bob); err != nil {
			return 0, Cost{}, err
		}
	}
	cost := Cost{
		AndGates: float64(circ.NumAnd) + float64(circ.NumAndG)/2,
		Seconds:  time.Since(start).Seconds(),
		Bytes:    float64(p.Conn.Stats().TotalBytes() - before),
	}
	return result, cost, nil
}

// Calibrate runs a small real execution and derives per-gate constants
// for extrapolation.
func Calibrate(p *mpc.Party) (Calibration, error) {
	// 6×6×6 chain join on random keys.
	g := p.PRG
	mk := func(owner mpc.Role) Relation {
		r := Relation{Owner: owner}
		for i := 0; i < 6; i++ {
			r.Keys = append(r.Keys, []uint64{g.Uint64n(5), g.Uint64n(5)})
			r.Annot = append(r.Annot, g.Uint64n(100))
		}
		return r
	}
	rels := []Relation{mk(mpc.Alice), mk(mpc.Bob), mk(mpc.Alice)}
	conds := []Cond{{0, 1, 1, 0}, {1, 1, 2, 0}}
	_, cost, err := Run(p, rels, conds)
	if err != nil {
		return Calibration{}, err
	}
	if cost.AndGates == 0 {
		return Calibration{}, fmt.Errorf("gcbaseline: calibration circuit had no AND gates")
	}
	return Calibration{
		SecondsPerGate: cost.Seconds / cost.AndGates,
		BytesPerGate:   cost.Bytes / cost.AndGates,
	}, nil
}

// SpecForSizes builds the JoinSpec of a k-way chain join over the masked
// relations (the shape of all five paper queries from the baseline's
// point of view).
func SpecForSizes(ell int, sizes ...int) JoinSpec {
	return JoinSpec{Sizes: sizes, EqChecks: len(sizes) - 1, Ell: ell}
}
