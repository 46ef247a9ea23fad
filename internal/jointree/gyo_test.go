package jointree

import "secyan/internal/relation"

// The GYO reduction, kept here as an oracle: Plan must find a witness
// tree exactly when GYO calls the query free-connex
// (TestPropertyIsFreeConnexAgreesWithPlan).

// isAcyclic runs the GYO reduction: repeatedly remove an "ear" — an edge
// whose attributes are each either exclusive to it or contained in some
// other single edge — until one edge remains.
func isAcyclic(h *Hypergraph) bool {
	return gyo(edgeSets(h.Edges))
}

func gyo(sets []attrSet) bool {
	alive := make([]bool, len(sets))
	nAlive := 0
	for i := range sets {
		alive[i] = true
		nAlive++
	}
	for nAlive > 1 {
		removed := false
		for i := range sets {
			if !alive[i] {
				continue
			}
			// Attributes of i shared with some other living edge.
			shared := attrSet{}
			for a := range sets[i] {
				for j := range sets {
					if j != i && alive[j] && sets[j][a] {
						shared[a] = true
						break
					}
				}
			}
			// i is an ear if some other edge contains all its shared attrs.
			for j := range sets {
				if j == i || !alive[j] {
					continue
				}
				ok := true
				for a := range shared {
					if !sets[j][a] {
						ok = false
						break
					}
				}
				if ok {
					alive[i] = false
					nAlive--
					removed = true
					break
				}
			}
			if removed {
				break
			}
		}
		if !removed {
			return false
		}
	}
	return true
}

// isFreeConnex reports whether the query with the given output attributes
// is free-connex: the hypergraph must be acyclic and remain acyclic after
// adding the output set as an extra hyperedge (Bagan, Durand and
// Grandjean 2007, reference [4] of the paper). This test works for any
// number of edges; Plan additionally constructs a witness tree.
func isFreeConnex(h *Hypergraph, output []relation.Attr) bool {
	if !isAcyclic(h) {
		return false
	}
	if len(output) == 0 {
		return true
	}
	augmented := append(edgeSets(h.Edges), toSet(output))
	return gyo(augmented)
}

// depth returns the depth of node i (root = 0).
func depth(t *Tree, i int) int {
	d := 0
	for v := i; t.Parent[v] != -1; v = t.Parent[v] {
		d++
	}
	return d
}
