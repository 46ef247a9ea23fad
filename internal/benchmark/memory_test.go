package benchmark

import (
	"runtime"
	"testing"

	"secyan/internal/relation"
	"secyan/internal/tpch"
)

// Memory-ceiling regression for the merge operators' sorted view. The
// operators walk a sort permutation (SortPermByColumns, 8 bytes/row)
// instead of cloning each relation to sort it (Clone + SortByColumns:
// O(n) rows + row headers retained for the whole step). This test pins
// that ratio on the TPC-H Q3 and Q10 input relations at the seed
// benchmark scale: the permutation walk must retain at most 50% of the
// sorted clone's live heap. Full-protocol peak-heap numbers (which add
// the O(n) public-size message buffers) are recorded in EXPERIMENTS.md.

// retainedBytes measures the live heap retained by what f returns:
// settle, snapshot, run f, collect its garbage, snapshot again. Settling
// takes two collections: the first moves sync.Pool contents to the
// pools' victim caches and the second frees them, so that no earlier
// test's pooled buffers are freed during the measurement.
func retainedBytes(f func() interface{}) int64 {
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	keep := f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(keep)
	return delta
}

// walkSorted consumes a sorted view exactly like the merge operators
// do: one pass over the permutation, one row of carry, no retention.
func walkSorted(r *relation.Relation, perm []int) uint64 {
	var acc uint64
	for _, old := range perm {
		acc ^= r.Tuples[old][0] + r.Annot[old]
	}
	return acc
}

// TestSortedViewMemoryCeiling: for the input relations of Q3 and Q10,
// the permutation walk (SortPermByColumns, then one pass over perm) must
// retain no more than 50% of what the sorted clone (Clone +
// SortByColumns) retains.
func TestSortedViewMemoryCeiling(t *testing.T) {
	db := tpch.Generate(tpch.Config{ScaleMB: 0.5, Seed: 1})
	for _, tc := range []struct {
		query string
		rels  []*relation.Relation
		cols  []int // sort columns, per the query's group-by/align steps
	}{
		// Q3 groups lineitem by orderkey and aligns orders on it.
		{"Q3", []*relation.Relation{db.Customer, db.Orders, db.Lineitem}, []int{0}},
		// Q10 groups by custkey and carries wider group-by tuples.
		{"Q10", []*relation.Relation{db.Customer, db.Orders, db.Lineitem}, []int{0, 1}},
	} {
		t.Run(tc.query, func(t *testing.T) {
			materialized := retainedBytes(func() interface{} {
				out := make([]*relation.Relation, len(tc.rels))
				for i, r := range tc.rels {
					cl := r.Clone()
					cl.SortByColumns(tc.cols)
					out[i] = cl
				}
				return out
			})
			walked := retainedBytes(func() interface{} {
				out := make([][]int, len(tc.rels))
				for i, r := range tc.rels {
					perm := relation.SortPermByColumns(r, tc.cols)
					walkSorted(r, perm)
					out[i] = perm
				}
				return out
			})
			rows := 0
			for _, r := range tc.rels {
				rows += r.Len()
			}
			t.Logf("%s (%d rows): sorted clone %d B, permutation walk %d B (%.1f%%)",
				tc.query, rows, materialized, walked, 100*float64(walked)/float64(materialized))
			if materialized <= 0 {
				t.Fatalf("sorted clone retained %d bytes; measurement broken", materialized)
			}
			if walked*2 > materialized {
				t.Fatalf("permutation walk retains %d B, more than 50%% of the sorted clone's %d B",
					walked, materialized)
			}
		})
	}
}
