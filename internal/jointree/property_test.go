package jointree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"secyan/internal/relation"
)

// randomAcyclicHypergraph grows a hypergraph that is acyclic by
// construction: each new edge shares a random attribute subset with one
// existing edge and adds fresh attributes.
func randomAcyclicHypergraph(rng *rand.Rand, k int) *Hypergraph {
	h := &Hypergraph{}
	next := 0
	fresh := func() relation.Attr {
		next++
		return relation.Attr(string(rune('a' + next/26))[:1] + string(rune('a'+next%26)))
	}
	first := Edge{Name: "R0"}
	for i := 0; i <= rng.Intn(3); i++ {
		first.Attrs = append(first.Attrs, fresh())
	}
	h.Edges = append(h.Edges, first)
	for e := 1; e < k; e++ {
		parent := h.Edges[rng.Intn(len(h.Edges))]
		edge := Edge{Name: "R" + string(rune('0'+e))}
		// Share a non-empty random subset of the parent's attrs.
		for _, a := range parent.Attrs {
			if rng.Intn(2) == 0 {
				edge.Attrs = append(edge.Attrs, a)
			}
		}
		if len(edge.Attrs) == 0 {
			edge.Attrs = append(edge.Attrs, parent.Attrs[rng.Intn(len(parent.Attrs))])
		}
		for i := 0; i < rng.Intn(3); i++ {
			edge.Attrs = append(edge.Attrs, fresh())
		}
		h.Edges = append(h.Edges, edge)
	}
	return h
}

// TestPropertyAcyclicConstructionsAreAcyclic: GYO must accept every
// tree-grown hypergraph.
func TestPropertyAcyclicConstructionsAreAcyclic(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%6) + 1
		return isAcyclic(randomAcyclicHypergraph(rng, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPlanTreesAreValid: whenever Plan succeeds, the returned
// tree must satisfy the running-intersection property and condition (2).
func TestPropertyPlanTreesAreValid(t *testing.T) {
	f := func(seed int64, kRaw, oRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%5) + 1
		h := randomAcyclicHypergraph(rng, k)
		all := h.AllAttrs()
		var output []relation.Attr
		for _, a := range all {
			if int(oRaw)%3 == 0 || rng.Intn(3) == 0 {
				output = append(output, a)
			}
		}
		tree, err := h.Plan(output)
		if err != nil {
			// ErrNotFreeConnex is a legitimate outcome; cyclic must not
			// occur by construction.
			return err != ErrCyclic
		}
		// Validate running intersection on the returned tree.
		sets := edgeSets(h.Edges)
		outSet := toSet(output)
		adj := make([][]int, len(h.Edges))
		for i, p := range tree.Parent {
			if p >= 0 {
				adj[i] = append(adj[i], p)
				adj[p] = append(adj[p], i)
			}
		}
		if !hasRunningIntersection(sets, adj) {
			return false
		}
		// The planner prefers condition-(2) trees (the paper's criterion)
		// and falls back to trees its reduce simulation accepts; either
		// acceptance certifies the tree.
		return satisfiesFreeConnex(sets, outSet, tree.Parent, tree.Root) ||
			reduceSimulationAccepts(sets, outSet, tree.Parent, tree.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyIsFreeConnexAgreesWithPlan: the GYO-based IsFreeConnex test
// and the exhaustive planner must agree on every instance.
func TestPropertyIsFreeConnexAgreesWithPlan(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%5) + 1
		h := randomAcyclicHypergraph(rng, k)
		all := h.AllAttrs()
		var output []relation.Attr
		for _, a := range all {
			if rng.Intn(2) == 0 {
				output = append(output, a)
			}
		}
		_, err := h.Plan(output)
		gyoSaysYes := isFreeConnex(h, output)
		planSaysYes := err == nil
		return gyoSaysYes == planSaysYes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPlanCostedIsArgmin: over randomized acyclic shapes and a
// deterministic synthetic cost function, the tree PlanCosted returns
// must cost no more than every candidate Candidates enumerates — the
// contract the core compiler's root selection relies on (DESIGN.md
// §7). With a constant cost it must degenerate to Plan's pick.
func TestPropertyPlanCostedIsArgmin(t *testing.T) {
	f := func(seed int64, kRaw uint8, weight uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%5) + 1
		h := randomAcyclicHypergraph(rng, k)
		all := h.AllAttrs()
		var output []relation.Attr
		for _, a := range all {
			if rng.Intn(3) == 0 {
				output = append(output, a)
			}
		}
		cands, err := h.Candidates(output)
		if err != nil {
			return err != ErrCyclic
		}
		// A synthetic but deterministic cost: root identity and tree depth
		// weighted by the fuzzed coefficient, so different trees genuinely
		// differ and ties still occur.
		cost := func(tr *Tree) (int64, error) {
			c := int64(tr.Root) * int64(weight%7+1)
			for i := range tr.PostOrder {
				c += int64(depth(tr, i))
			}
			return c, nil
		}
		best, err := h.PlanCosted(output, cost)
		if err != nil {
			return false
		}
		bestCost, _ := cost(best)
		for _, cand := range cands {
			if c, _ := cost(cand); c < bestCost {
				return false
			}
		}
		// Constant cost degenerates to Plan's choice.
		flat, err := h.PlanCosted(output, func(*Tree) (int64, error) { return 1, nil })
		if err != nil {
			return false
		}
		planned, err := h.Plan(output)
		if err != nil || flat.Root != planned.Root {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
