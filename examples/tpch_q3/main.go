// TPC-H Q3 under secure Yannakakis: the headline experiment of the paper
// (Figure 2), at a laptop-friendly scale. Generates a deterministic
// TPC-H-style dataset, splits it between the parties (customer and
// lineitem to Alice, orders to Bob), runs the full 2PC protocol, and
// cross-checks the revealed result against the plaintext engine.
//
// Run with: go run ./examples/tpch_q3 [-scale 0.1]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"secyan"
	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/queries"
	"secyan/internal/tpch"
)

func main() {
	scale := flag.Float64("scale", 0.12, "dataset size in MB")
	flag.Parse()

	db := tpch.Generate(tpch.Config{ScaleMB: *scale, Seed: 42})
	fmt.Printf("dataset: %d customers, %d orders, %d lineitems\n",
		db.Customer.Len(), db.Orders.Len(), db.Lineitem.Len())

	spec := queries.Q3()
	alice, bob := mpc.Pair(secyan.DefaultRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()

	start := time.Now()
	run := func(p *mpc.Party) (*secyan.Relation, error) { return spec.SecureOpts(p, db, core.Options{}) }
	secure, _, err := mpc.Run2PC(alice, bob, run, run)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	plain, err := spec.Plain(db, secyan.DefaultRing.Bits)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntop revenue orders (secure result, %d rows):\n", secure.Len())
	type row struct {
		orderkey, revenue uint64
	}
	var rows []row
	for i := range secure.Tuples {
		rows = append(rows, row{secure.Tuples[i][0], secure.Annot[i]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].revenue > rows[j].revenue })
	for i := 0; i < len(rows) && i < 5; i++ {
		fmt.Printf("  order %6d  revenue %12d (cents × 100)\n", rows[i].orderkey, rows[i].revenue)
	}

	st := alice.Conn.Stats()
	fmt.Printf("\nsecure: %.2fs, %.2f MB, %d rounds; plaintext reference agrees on %d rows: %v\n",
		elapsed.Seconds(), float64(st.TotalBytes())/1e6, st.Rounds,
		plain.Len(), plain.Len() == secure.Len())
}
