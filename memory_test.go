package secyan

import (
	"runtime"
	"testing"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/queries"
	"secyan/internal/relation"
	"secyan/internal/share"
	"secyan/internal/tpch"
)

// TestQueryAllocationNearWire pins a whole query's memory to its
// traffic: one TPC-H Q3 run on the in-memory pipe — base OTs, planning,
// both parties' kernels — allocates at most 4.5 times the bytes Alice
// moves. The kernel plane allocates little beyond its wire messages and
// output pads (DESIGN §3); a κ×m matrix per OT batch, or a pipe that
// copies every message, breaks the bound. It runs at 0.06 MB, and also
// at 0.12 MB outside -short, with the lineitem table fixed at four rows
// per order as the benchmark's workloads have it.
func TestQueryAllocationNearWire(t *testing.T) {
	const bound = 4.5
	scales := []float64{0.06}
	if !testing.Short() {
		scales = append(scales, 0.12)
	}
	ring := share.Ring{Bits: 32}
	spec := queries.Q3()
	for _, scale := range scales {
		db := tpch.Generate(tpch.Config{ScaleMB: scale, Seed: 1})
		li := relation.New(db.Lineitem.Schema)
		for i := 0; i < 4*db.Orders.Len(); i++ {
			j := i % db.Lineitem.Len()
			li.Append(db.Lineitem.Tuples[j], db.Lineitem.Annot[j])
		}
		db.Lineitem = li
		query := func() int64 {
			a, b := mpc.Pair(ring)
			defer a.Conn.Close()
			defer b.Conn.Close()
			f := func(p *mpc.Party) (*relation.Relation, error) { return spec.SecureOpts(p, db, core.ExecOptions{}) }
			if _, _, err := mpc.Run2PC(a, b, f, f); err != nil {
				t.Fatalf("scale %g: %v", scale, err)
			}
			return a.Conn.Stats().TotalBytes()
		}
		query() // warm the planner's caches, as a benchmark's first query does
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		wire := query()
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		ratio := float64(alloc) / float64(wire)
		t.Logf("scale %g: %d B allocated, %d B on the wire, ratio %.2f", scale, alloc, wire, ratio)
		if ratio > bound {
			t.Errorf("scale %g: a Q3 query allocates %.2f × its wire bytes (%d B for %d B), want at most %.1f",
				scale, ratio, alloc, wire, bound)
		}
	}
}
