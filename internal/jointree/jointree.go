// Package jointree models join hypergraphs and plans join trees: it tests
// acyclicity via GYO reduction, and finds a join tree with a root
// satisfying the free-connex condition of paper §3.1 — for any output
// attribute A and non-output attribute B, TOP(B) must not be a proper
// ancestor of TOP(A). Free-connex join-aggregate queries are exactly the
// class the (secure) Yannakakis algorithm answers in Õ(IN + OUT).
package jointree

import (
	"fmt"

	"secyan/internal/relation"
)

// Edge is one hyperedge: a relation name and its attribute set.
type Edge struct {
	Name  string
	Attrs []relation.Attr
}

// Hypergraph is the join structure of a query.
type Hypergraph struct {
	Edges []Edge
}

// maxPlanEdges bounds the exhaustive join-tree search. Labeled trees on k
// nodes number k^(k-2), so 9 relations cost ~43M candidate (tree, root)
// pairs — still subsecond-to-seconds; beyond that the planner refuses.
// Every query in the paper's evaluation has at most 5 relations.
const maxPlanEdges = 9

// ErrCyclic reports a query whose hypergraph has no join tree.
var ErrCyclic = fmt.Errorf("jointree: query is cyclic (no join tree exists)")

// ErrNotFreeConnex reports an acyclic query with no join tree satisfying
// the free-connex condition for the requested output attributes.
var ErrNotFreeConnex = fmt.Errorf("jointree: query is not free-connex for the given output attributes")

// Tree is a rooted join tree over the hypergraph's edges.
type Tree struct {
	H        *Hypergraph
	Root     int
	Parent   []int   // Parent[i] = -1 for the root
	Children [][]int // derived from Parent
	// PostOrder lists nodes children-before-parents; the Yannakakis
	// passes iterate it forwards (bottom-up) or backwards (top-down).
	PostOrder []int
}

// attrSet is a small helper for attribute membership.
type attrSet map[relation.Attr]bool

func toSet(attrs []relation.Attr) attrSet {
	s := make(attrSet, len(attrs))
	for _, a := range attrs {
		s[a] = true
	}
	return s
}

// AllAttrs returns the set of attributes appearing in any edge.
func (h *Hypergraph) AllAttrs() []relation.Attr {
	seen := attrSet{}
	var out []relation.Attr
	for _, e := range h.Edges {
		for _, a := range e.Attrs {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

func edgeSets(edges []Edge) []attrSet {
	sets := make([]attrSet, len(edges))
	for i, e := range edges {
		sets[i] = toSet(e.Attrs)
	}
	return sets
}

// Plan finds a rooted join tree satisfying the free-connex condition for
// the output attributes: the first of Candidates. It returns ErrCyclic or
// ErrNotFreeConnex when no tree qualifies.
func (h *Hypergraph) Plan(output []relation.Attr) (*Tree, error) {
	cands, err := h.Candidates(output)
	if err != nil {
		return nil, err
	}
	return cands[0], nil
}

// Candidates enumerates every rooted join tree the planner accepts for
// the output attributes, by exhaustive search over labeled trees (Prüfer
// enumeration) with the running-intersection property as the filter, in
// preference order: all trees satisfying condition (2) of §3.1 first,
// then — only if there are none — the reduce-simulation fallback tier.
// Within each tier the order is the Prüfer enumeration order. It returns
// ErrCyclic or ErrNotFreeConnex when no tree qualifies.
func (h *Hypergraph) Candidates(output []relation.Attr) ([]*Tree, error) {
	k := len(h.Edges)
	if k == 0 {
		return nil, fmt.Errorf("jointree: empty hypergraph")
	}
	all := toSet(h.AllAttrs())
	for _, a := range output {
		if !all[a] {
			return nil, fmt.Errorf("jointree: output attribute %q not in any relation", a)
		}
	}
	if k > maxPlanEdges {
		return nil, fmt.Errorf("jointree: planner supports at most %d relations, got %d", maxPlanEdges, k)
	}
	if k == 1 {
		t, err := newTree(h, 0, []int{-1})
		if err != nil {
			return nil, err
		}
		return []*Tree{t}, nil
	}
	sets := edgeSets(h.Edges)
	outSet := toSet(output)

	foundJoinTree := false
	var preferred, fallback []*Tree
	forEachLabeledTree(k, func(adj [][]int) {
		if !hasRunningIntersection(sets, adj) {
			return
		}
		foundJoinTree = true
		for root := 0; root < k; root++ {
			parent := rootTree(adj, root)
			if satisfiesFreeConnex(sets, outSet, parent, root) {
				if t, err := newTree(h, root, parent); err == nil {
					preferred = append(preferred, t)
				}
			} else if reduceSimulationAccepts(sets, outSet, parent, root) {
				// The paper's condition (2) is sufficient but not
				// necessary: some queries whose augmented hypergraph H∪{O}
				// is acyclic (the textbook free-connex characterization)
				// admit no condition-(2) tree, yet the engine evaluates
				// them in O(IN+OUT) because it aggregates every surviving
				// node. Such trees are accepted by simulating the reduce
				// phase.
				if t, err := newTree(h, root, parent); err == nil {
					fallback = append(fallback, t)
				}
			}
		}
	})
	if len(preferred) > 0 {
		return preferred, nil
	}
	if len(fallback) > 0 {
		return fallback, nil
	}
	if !foundJoinTree {
		return nil, ErrCyclic
	}
	return nil, ErrNotFreeConnex
}

// PlanCosted picks the candidate tree minimizing cost(t) — the hook the
// core plan compiler uses for cost-based root (and tree) selection. A
// candidate whose cost call fails is skipped; ties keep the earliest
// candidate, so with a constant cost function PlanCosted degenerates to
// Plan. If every candidate fails, the first cost error is returned.
func (h *Hypergraph) PlanCosted(output []relation.Attr, cost func(*Tree) (int64, error)) (*Tree, error) {
	cands, err := h.Candidates(output)
	if err != nil {
		return nil, err
	}
	var best *Tree
	var bestCost int64
	var firstErr error
	for _, t := range cands {
		c, err := cost(t)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || c < bestCost {
			best, bestCost = t, c
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// reduceSimulationAccepts replays the engine's reduce phase on attribute
// sets only and accepts the rooted tree exactly when the engine can
// finish in O(IN + OUT): every surviving non-root node ends up with
// output attributes only, and the root's non-output attributes (folded
// by its final aggregation) are not shared with any other survivor.
func reduceSimulationAccepts(sets []attrSet, output attrSet, parent []int, root int) bool {
	k := len(sets)
	cur := make([]attrSet, k)
	for i, s := range sets {
		cur[i] = make(attrSet, len(s))
		for a := range s {
			cur[i][a] = true
		}
	}
	childrenLeft := make([]int, k)
	for _, p := range parent {
		if p >= 0 {
			childrenLeft[p]++
		}
	}
	// Post-order by repeated sweeps (k is tiny).
	removed := make([]bool, k)
	for changed := true; changed; {
		changed = false
		for i := 0; i < k; i++ {
			if i == root || removed[i] || childrenLeft[i] > 0 {
				continue
			}
			p := parent[i]
			fPrime := attrSet{}
			for a := range cur[i] {
				if output[a] || cur[p][a] {
					fPrime[a] = true
				}
			}
			subset := true
			for a := range fPrime {
				if !cur[p][a] {
					subset = false
					break
				}
			}
			cur[i] = fPrime
			if subset {
				removed[i] = true
				childrenLeft[p]--
				changed = true
			}
		}
	}
	for i := 0; i < k; i++ {
		if removed[i] || i == root {
			continue
		}
		for a := range cur[i] {
			if !output[a] {
				return false
			}
		}
	}
	// Root: its non-output attrs are aggregated away at the end, which is
	// sound only if no other survivor still joins on them.
	for a := range cur[root] {
		if output[a] {
			continue
		}
		for i := 0; i < k; i++ {
			if i != root && !removed[i] && cur[i][a] {
				return false
			}
		}
	}
	return true
}

// forEachLabeledTree enumerates all labeled trees on k ≥ 2 nodes via
// Prüfer sequences.
func forEachLabeledTree(k int, visit func(adj [][]int)) {
	if k == 2 {
		visit([][]int{{1}, {0}})
		return
	}
	seq := make([]int, k-2)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == len(seq) {
			visit(pruferDecode(seq, k))
			return
		}
		for v := 0; v < k; v++ {
			seq[pos] = v
			rec(pos + 1)
		}
	}
	rec(0)
}

// pruferDecode converts a Prüfer sequence to a tree adjacency list.
func pruferDecode(seq []int, k int) [][]int {
	deg := make([]int, k)
	for i := range deg {
		deg[i] = 1
	}
	for _, v := range seq {
		deg[v]++
	}
	adj := make([][]int, k)
	addEdge := func(a, b int) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	used := make([]bool, k)
	for _, v := range seq {
		for leaf := 0; leaf < k; leaf++ {
			if deg[leaf] == 1 && !used[leaf] {
				addEdge(leaf, v)
				used[leaf] = true
				deg[v]--
				break
			}
		}
	}
	// Two nodes of degree 1 remain.
	last := []int{}
	for v := 0; v < k; v++ {
		if !used[v] && deg[v] == 1 {
			last = append(last, v)
		}
	}
	addEdge(last[0], last[1])
	return adj
}

// hasRunningIntersection checks that for every attribute, the nodes
// containing it induce a connected subgraph.
func hasRunningIntersection(sets []attrSet, adj [][]int) bool {
	attrs := attrSet{}
	for _, s := range sets {
		for a := range s {
			attrs[a] = true
		}
	}
	for a := range attrs {
		start := -1
		count := 0
		for i, s := range sets {
			if s[a] {
				count++
				if start < 0 {
					start = i
				}
			}
		}
		if count <= 1 {
			continue
		}
		// BFS within nodes containing a.
		seen := map[int]bool{start: true}
		queue := []int{start}
		reached := 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if sets[w][a] && !seen[w] {
					seen[w] = true
					reached++
					queue = append(queue, w)
				}
			}
		}
		if reached != count {
			return false
		}
	}
	return true
}

// rootTree converts an adjacency list to parent pointers rooted at root.
func rootTree(adj [][]int, root int) []int {
	parent := make([]int, len(adj))
	for i := range parent {
		parent[i] = -2
	}
	parent[root] = -1
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if parent[w] == -2 {
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return parent
}

// satisfiesFreeConnex checks condition (2) of §3.1 on a rooted tree:
// no TOP(non-output attr) is a proper ancestor of a TOP(output attr).
func satisfiesFreeConnex(sets []attrSet, output attrSet, parent []int, root int) bool {
	depth := make([]int, len(parent))
	for i := range parent {
		d := 0
		for v := i; parent[v] != -1; v = parent[v] {
			d++
		}
		depth[i] = d
	}
	top := map[relation.Attr]int{}
	for i, s := range sets {
		for a := range s {
			if t, ok := top[a]; !ok || depth[i] < depth[t] {
				top[a] = i
			}
		}
	}
	isAncestor := func(anc, node int) bool {
		for v := parent[node]; v != -1; v = parent[v] {
			if v == anc {
				return true
			}
		}
		return false
	}
	for b, tb := range top {
		if output[b] {
			continue
		}
		for a, ta := range top {
			if !output[a] {
				continue
			}
			if isAncestor(tb, ta) {
				return false
			}
		}
	}
	return true
}

// newTree finalizes a Tree from parent pointers.
func newTree(h *Hypergraph, root int, parent []int) (*Tree, error) {
	k := len(parent)
	t := &Tree{H: h, Root: root, Parent: parent, Children: make([][]int, k)}
	for i, p := range parent {
		if p >= 0 {
			t.Children[p] = append(t.Children[p], i)
		} else if i != root {
			return nil, fmt.Errorf("jointree: disconnected node %d", i)
		}
	}
	var post func(v int)
	post = func(v int) {
		for _, c := range t.Children[v] {
			post(c)
		}
		t.PostOrder = append(t.PostOrder, v)
	}
	post(root)
	if len(t.PostOrder) != k {
		return nil, fmt.Errorf("jointree: tree does not span all nodes")
	}
	return t, nil
}
