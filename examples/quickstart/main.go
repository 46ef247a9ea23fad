// Quickstart: the paper's running example (Example 1.1).
//
// An insurance company (Alice) holds a policy relation
// R1(person, coinsurance) and a disease classification R3(disease,
// class); a hospital (Bob) holds medical records R2(person, disease,
// cost). They jointly compute
//
//	select class, sum(cost * (1 - coinsurance))
//	from R1, R2, R3
//	where R1.person = R2.person and R2.disease = R3.disease
//	group by class
//
// without either side revealing its relation. Alice learns only the
// per-class totals; Bob learns nothing.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"secyan"
)

func main() {
	// --- Alice's data -------------------------------------------------
	// Annotation of a policy row is 100*(1-coinsurance), the paper's
	// fixed-point encoding (Example 3.1): person 1 is covered 80%, etc.
	policies := secyan.NewRelation("person", "coinsurance")
	policies.Append([]uint64{1, 20}, 80)
	policies.Append([]uint64{2, 50}, 50)
	policies.Append([]uint64{3, 10}, 90)

	// Disease classification; annotation 1 (pure join).
	classes := secyan.NewRelation("disease", "class")
	classes.Append([]uint64{100, 1}, 1) // disease 100 → class 1 (chronic)
	classes.Append([]uint64{101, 1}, 1)
	classes.Append([]uint64{102, 2}, 1) // class 2 (acute)

	// --- Bob's data ---------------------------------------------------
	// Annotation of a record is its cost in cents.
	records := secyan.NewRelation("person", "disease")
	records.Append([]uint64{1, 100}, 120_00)
	records.Append([]uint64{1, 102}, 80_00)
	records.Append([]uint64{2, 101}, 200_00)
	records.Append([]uint64{4, 100}, 999_00) // person 4 is uninsured

	// --- The query, described once -------------------------------------
	// Both parties agree on schemas, owners and public sizes; each runs
	// q.For(role), the view that carries only its own relations.
	q := &secyan.Query{
		Inputs: []secyan.Input{
			{Name: "policies", Owner: secyan.Alice, Schema: policies.Schema, N: policies.Len(), Rel: policies},
			{Name: "records", Owner: secyan.Bob, Schema: records.Schema, N: records.Len(), Rel: records},
			{Name: "classes", Owner: secyan.Alice, Schema: classes.Schema, N: classes.Len(), Rel: classes},
		},
		Output: []secyan.Attr{"class"},
	}

	if err := secyan.CheckFreeConnex(q, q.Output); err != nil {
		log.Fatalf("query not supported: %v", err)
	}

	// --- Run both parties in-process -----------------------------------
	alice, bob := secyan.OpenLocal()
	defer alice.Close()
	defer bob.Close()

	ctx := context.Background()
	type half struct {
		res *secyan.Result
		err error
	}
	bobDone := make(chan half, 1)
	go func() {
		res, err := bob.Query(ctx, q.For(secyan.Bob))
		bobDone <- half{res, err}
	}()
	res, err := alice.Query(ctx, q.For(secyan.Alice))
	if err != nil {
		log.Fatal(err)
	}
	bobHalf := <-bobDone
	if bobHalf.err != nil {
		log.Fatal(bobHalf.err)
	}
	if bobHalf.res.Relation != nil {
		log.Fatal("Bob must learn nothing")
	}
	result := res.Relation

	// The plaintext engine over the whole description is the reference
	// (only this demo holds both parties' data).
	want, err := secyan.Plaintext(q, secyan.DefaultRing)
	if err != nil {
		log.Fatal(err)
	}
	wantByClass := map[uint64]uint64{}
	for i := range want.Tuples {
		wantByClass[want.Tuples[i][0]] = want.Annot[i]
	}
	fmt.Println("expected payout by disease class (cents × 100):")
	for i := range result.Tuples {
		class, got := result.Tuples[i][0], result.Annot[i]
		fmt.Printf("  class %d: %d\n", class, got)
		if got != wantByClass[class] {
			log.Fatalf("class %d: secure %d, plaintext %d", class, got, wantByClass[class])
		}
	}
	if result.Len() != want.Len() {
		log.Fatalf("secure result has %d classes, plaintext %d", result.Len(), want.Len())
	}
	st := alice.Stats().Data
	fmt.Printf("transcript: %d bytes, %d rounds — and nothing about the other party's rows\n",
		st.TotalBytes(), st.Rounds)
}
