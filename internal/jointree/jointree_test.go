package jointree

import (
	"testing"

	"secyan/internal/relation"
)

type A = relation.Attr

func edges(es ...Edge) *Hypergraph { return &Hypergraph{Edges: es} }

// paperExample is the query of Figure 1: R1(A,B), R2(A,C), R3(B,D,F),
// R4(D,F,G), R5(B,E).
func paperExample() *Hypergraph {
	return edges(
		Edge{"R1", []A{"A", "B"}},
		Edge{"R2", []A{"A", "C"}},
		Edge{"R3", []A{"B", "D", "F"}},
		Edge{"R4", []A{"D", "F", "G"}},
		Edge{"R5", []A{"B", "E"}},
	)
}

func TestAcyclicity(t *testing.T) {
	if !isAcyclic(paperExample()) {
		t.Error("Figure 1 query must be acyclic")
	}
	// Example 1.1: R1(person,coins,state) ⋈ R2(person,disease,cost) ⋈ R3(disease,class)
	ex11 := edges(
		Edge{"R1", []A{"person", "coinsurance", "state"}},
		Edge{"R2", []A{"person", "disease", "cost"}},
		Edge{"R3", []A{"disease", "class"}},
	)
	if !isAcyclic(ex11) {
		t.Error("Example 1.1 must be acyclic")
	}
	// Triangle join is the canonical cyclic query (§3.1).
	tri := edges(
		Edge{"R1", []A{"A", "B"}},
		Edge{"R2", []A{"B", "C"}},
		Edge{"R3", []A{"A", "C"}},
	)
	if isAcyclic(tri) {
		t.Error("triangle join must be cyclic")
	}
	single := edges(Edge{"R", []A{"X"}})
	if !isAcyclic(single) {
		t.Error("single edge is acyclic")
	}
}

func TestFreeConnexPaperExamples(t *testing.T) {
	// Figure 1 with O = {B,D,E,F} is free-connex (the tree of Fig. 1b).
	if !isFreeConnex(paperExample(), []A{"B", "D", "E", "F"}) {
		t.Error("Figure 1 query with O={B,D,E,F} must be free-connex")
	}
	// Example 1.1: group by class is free-connex...
	ex11 := edges(
		Edge{"R1", []A{"person", "coinsurance", "state"}},
		Edge{"R2", []A{"person", "disease", "cost"}},
		Edge{"R3", []A{"disease", "class"}},
	)
	if !isFreeConnex(ex11, []A{"class"}) {
		t.Error("Example 1.1 grouped by class must be free-connex")
	}
	// ...but group by {class, coinsurance} is not (§3.1).
	if isFreeConnex(ex11, []A{"class", "coinsurance"}) {
		t.Error("Example 1.1 grouped by {class,coinsurance} must not be free-connex")
	}
	// O = ∅ (full aggregation) is always free-connex for acyclic queries.
	if !isFreeConnex(paperExample(), nil) {
		t.Error("empty output must be free-connex")
	}
}

// checkTree validates structural invariants and condition (2).
func checkTree(t *testing.T, tree *Tree, output []A) {
	t.Helper()
	h := tree.H
	k := len(h.Edges)
	if len(tree.PostOrder) != k {
		t.Fatalf("post-order covers %d of %d nodes", len(tree.PostOrder), k)
	}
	// Running intersection.
	for _, a := range h.AllAttrs() {
		var nodes []int
		for i, e := range h.Edges {
			for _, x := range e.Attrs {
				if x == a {
					nodes = append(nodes, i)
					break
				}
			}
		}
		if len(nodes) <= 1 {
			continue
		}
		in := map[int]bool{}
		for _, n := range nodes {
			in[n] = true
		}
		// Walk up from each node; the subgraph induced by `nodes` must be
		// connected, i.e. for every pair there is a tree path within it.
		// Equivalent check: at most one of the nodes has a parent outside
		// the set.
		outsideParent := 0
		for _, n := range nodes {
			if tree.Parent[n] == -1 || !in[tree.Parent[n]] {
				outsideParent++
			}
		}
		if outsideParent != 1 {
			t.Fatalf("attribute %q: containing nodes not connected in tree", a)
		}
	}
	// Condition (2) is re-checked by construction in the planner; verify
	// post-order is children-before-parents.
	pos := make([]int, k)
	for idx, n := range tree.PostOrder {
		pos[n] = idx
	}
	for i, p := range tree.Parent {
		if p >= 0 && pos[i] > pos[p] {
			t.Fatalf("node %d appears after its parent in post-order", i)
		}
	}
}

func TestPlanProducesValidTrees(t *testing.T) {
	h := paperExample()
	output := []A{"B", "D", "E", "F"}
	tree, err := h.Plan(output)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	checkTree(t, tree, output)

	ex11 := edges(
		Edge{"R1", []A{"person", "coinsurance", "state"}},
		Edge{"R2", []A{"person", "disease", "cost"}},
		Edge{"R3", []A{"disease", "class"}},
	)
	tree, err = ex11.Plan([]A{"class"})
	if err != nil {
		t.Fatalf("Plan example 1.1: %v", err)
	}
	checkTree(t, tree, []A{"class"})
}

func TestPlanErrors(t *testing.T) {
	tri := edges(
		Edge{"R1", []A{"A", "B"}},
		Edge{"R2", []A{"B", "C"}},
		Edge{"R3", []A{"A", "C"}},
	)
	if _, err := tri.Plan(nil); err != ErrCyclic {
		t.Errorf("triangle: got %v, want ErrCyclic", err)
	}
	ex11 := edges(
		Edge{"R1", []A{"person", "coinsurance", "state"}},
		Edge{"R2", []A{"person", "disease", "cost"}},
		Edge{"R3", []A{"disease", "class"}},
	)
	if _, err := ex11.Plan([]A{"class", "coinsurance"}); err != ErrNotFreeConnex {
		t.Errorf("non-free-connex: got %v", err)
	}
	if _, err := ex11.Plan([]A{"nonexistent"}); err == nil {
		t.Error("unknown output attribute accepted")
	}
	if _, err := edges().Plan(nil); err == nil {
		t.Error("empty hypergraph accepted")
	}
}

func TestPlanSingleEdge(t *testing.T) {
	h := edges(Edge{"R", []A{"X", "Y"}})
	tree, err := h.Plan([]A{"X"})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != 0 || len(tree.PostOrder) != 1 {
		t.Fatal("single-edge tree malformed")
	}
}

func TestPlanChainQueries(t *testing.T) {
	// TPC-H Q3 shape: customer(ck) - orders(ck,ok,...) - lineitem(ok,...).
	h := edges(
		Edge{"customer", []A{"custkey", "mktsegment"}},
		Edge{"orders", []A{"orderkey", "custkey", "orderdate", "shippriority"}},
		Edge{"lineitem", []A{"orderkey"}},
	)
	output := []A{"orderkey", "orderdate", "shippriority"}
	tree, err := h.Plan(output)
	if err != nil {
		t.Fatalf("Q3 shape: %v", err)
	}
	checkTree(t, tree, output)
}

func TestDepth(t *testing.T) {
	h := edges(
		Edge{"R1", []A{"A"}},
		Edge{"R2", []A{"A", "B"}},
		Edge{"R3", []A{"B"}},
	)
	tree, err := h.Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if depth(tree, tree.Root) != 0 {
		t.Fatal("root depth must be 0")
	}
	for i := range tree.Parent {
		if i != tree.Root && depth(tree, i) != depth(tree, tree.Parent[i])+1 {
			t.Fatal("depth inconsistent with parent")
		}
	}
}
