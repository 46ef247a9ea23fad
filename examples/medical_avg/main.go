// Average cost per disease class across two private databases — the
// query-composition extension of paper §7: AVG is no single semiring
// aggregate, so the parties run the secure Yannakakis protocol twice
// (sum of costs, count of records), keep both results secret-shared, and
// a final small garbled circuit divides them, revealing only the
// averages to Alice.
//
// Run with: go run ./examples/medical_avg
package main

import (
	"context"
	"fmt"
	"log"

	"secyan"
)

func main() {
	// Alice: disease → class mapping (public-ish reference data she holds).
	classes := secyan.NewRelation("disease", "class")
	for d := uint64(0); d < 6; d++ {
		classes.Append([]uint64{d, d % 2}, 1)
	}

	// Bob: hospital records; the cost annotation feeds the sum query, the
	// constant-1 annotation feeds the count query.
	type rec struct{ person, disease, cost uint64 }
	recs := []rec{
		{1, 0, 1000}, {2, 0, 3000}, {3, 1, 500},
		{4, 2, 800}, {5, 2, 1200}, {6, 2, 400}, {7, 5, 90},
	}
	sumRel := secyan.NewRelation("person", "disease")
	cntRel := secyan.NewRelation("person", "disease")
	for _, r := range recs {
		sumRel.Append([]uint64{r.person, r.disease}, r.cost)
		cntRel.Append([]uint64{r.person, r.disease}, 1)
	}

	query := func(records *secyan.Relation) *secyan.Query {
		return &secyan.Query{
			Inputs: []secyan.Input{
				{Name: "records", Owner: secyan.Bob, Schema: records.Schema, N: records.Len(), Rel: records},
				{Name: "classes", Owner: secyan.Alice, Schema: classes.Schema, N: classes.Len(), Rel: classes},
			},
			Output: []secyan.Attr{"class"},
		}
	}
	sumQ, cntQ := query(sumRel), query(cntRel)

	alice, bob := secyan.OpenLocal()
	defer alice.Close()
	defer bob.Close()

	ctx := context.Background()
	run := func(s *secyan.Session, role secyan.Role) (*secyan.Relation, error) {
		// Two shared runs over the same tuples (different annotations),
		// then one division circuit: avg = sum / count.
		sum, err := s.Query(ctx, sumQ.For(role), secyan.WithSharedResult())
		if err != nil {
			return nil, err
		}
		cnt, err := s.Query(ctx, cntQ.For(role), secyan.WithSharedResult())
		if err != nil {
			return nil, err
		}
		return s.RevealRatio(ctx, sum.Shared, cnt.Shared, 1)
	}

	bobDone := make(chan error, 1)
	go func() {
		_, err := run(bob, secyan.Bob)
		bobDone <- err
	}()
	result, err := run(alice, secyan.Alice)
	if err != nil {
		log.Fatal(err)
	}
	if err := <-bobDone; err != nil {
		log.Fatal(err)
	}

	// Plaintext check.
	sums := map[uint64]uint64{}
	cnts := map[uint64]uint64{}
	for _, r := range recs {
		class := r.disease % 2
		sums[class] += r.cost
		cnts[class]++
	}
	fmt.Println("average treatment cost by class (integer division):")
	for i := range result.Tuples {
		class, avg := result.Tuples[i][0], result.Annot[i]
		fmt.Printf("  class %d: avg %d\n", class, avg)
		if cnts[class] == 0 || avg != sums[class]/cnts[class] {
			log.Fatalf("class %d: secure avg %d, expected %d/%d", class, avg, sums[class], cnts[class])
		}
	}
	if result.Len() != len(sums) {
		log.Fatalf("secure result has %d classes, expected %d", result.Len(), len(sums))
	}
	fmt.Println("expected:")
	for class, s := range sums {
		fmt.Printf("  class %d: avg %d\n", class, s/cnts[class])
	}
}
