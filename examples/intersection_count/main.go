// Private intersection-join counting: how many (customer, supplier)
// relationships do two companies share, without revealing the
// relationships themselves? This is the count aggregation (O = ∅) path
// of the protocol: all annotations are 1 and the single revealed number
// is the join size — the degenerate case the paper notes reduces the
// oblivious semijoin machinery to (almost) plain PSI (§6.5).
//
// Run with: go run ./examples/intersection_count
package main

import (
	"context"
	"fmt"
	"log"

	"secyan"
)

func main() {
	// Each party holds a set of account numbers (as single-column
	// relations annotated with 1).
	mine := secyan.NewRelation("account")
	yours := secyan.NewRelation("account")
	for v := uint64(0); v < 40; v += 2 {
		mine.Append([]uint64{v}, 1) // evens
	}
	for v := uint64(0); v < 40; v += 3 {
		yours.Append([]uint64{v}, 1) // multiples of three
	}

	queryFor := func(role secyan.Role) *secyan.Query {
		q := &secyan.Query{
			Inputs: []secyan.Input{
				{Name: "mine", Owner: secyan.Alice, Schema: mine.Schema, N: mine.Len()},
				{Name: "yours", Owner: secyan.Bob, Schema: yours.Schema, N: yours.Len()},
			},
			Output: nil, // O = ∅: a single grand total
		}
		if role == secyan.Alice {
			q.Inputs[0].Rel = mine
		} else {
			q.Inputs[1].Rel = yours
		}
		return q
	}

	alice, bob := secyan.OpenLocal()
	defer alice.Close()
	defer bob.Close()
	ctx := context.Background()
	bobDone := make(chan error, 1)
	go func() {
		_, err := bob.Query(ctx, queryFor(secyan.Bob))
		bobDone <- err
	}()
	res, err := alice.Query(ctx, queryFor(secyan.Alice))
	if err != nil {
		log.Fatal(err)
	}
	if err := <-bobDone; err != nil {
		log.Fatal(err)
	}
	count := uint64(0)
	if res.Relation.Len() == 1 {
		count = res.Relation.Annot[0]
	}
	fmt.Printf("shared accounts: %d (expected: multiples of 6 below 40 = 7)\n", count)
}
