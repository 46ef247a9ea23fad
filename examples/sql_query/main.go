// SQL front end demo: the quickstart query written as SQL and compiled
// to a secure plan. Each party holds its own catalog view (same schema
// metadata, only its own data) and both execute the same statement.
//
// Run with: go run ./examples/sql_query
package main

import (
	"context"
	"fmt"
	"log"

	"secyan"
)

const query = `
	SELECT classes.class, SUM(records.cost * (100 - policies.coinsurance))
	FROM policies, records, classes
	WHERE policies.person = records.person
	  AND records.disease = classes.disease
	  AND records.cost > 500
	GROUP BY classes.class`

func main() {
	policies := secyan.NewRelation("person", "coinsurance")
	policies.Append([]uint64{1, 20}, 1)
	policies.Append([]uint64{2, 50}, 1)
	records := secyan.NewRelation("person", "disease", "cost")
	records.Append([]uint64{1, 100, 1200}, 1)
	records.Append([]uint64{2, 100, 2000}, 1)
	records.Append([]uint64{2, 101, 300}, 1) // filtered by cost > 500
	classes := secyan.NewRelation("disease", "class")
	classes.Append([]uint64{100, 1}, 1)
	classes.Append([]uint64{101, 2}, 1)

	// One catalog describes every table; For gives each party its view,
	// the data of its own tables only.
	cat := &secyan.SQLCatalog{Tables: map[string]*secyan.SQLTable{
		"policies": secyan.NewSQLTable(secyan.Alice, policies.Schema.Attrs, policies.Len(), policies),
		"records":  secyan.NewSQLTable(secyan.Bob, records.Schema.Attrs, records.Len(), records),
		"classes":  secyan.NewSQLTable(secyan.Alice, classes.Schema.Attrs, classes.Len(), classes),
	}}

	alice, bob := secyan.OpenLocal()
	defer alice.Close()
	defer bob.Close()
	ctx := context.Background()
	bobDone := make(chan error, 1)
	go func() {
		_, err := bob.ExecSQL(ctx, query, cat.For(secyan.Bob))
		bobDone <- err
	}()
	res, err := alice.ExecSQL(ctx, query, cat.For(secyan.Alice))
	if err != nil {
		log.Fatal(err)
	}
	if err := <-bobDone; err != nil {
		log.Fatal(err)
	}
	fmt.Println("SQL over private data:")
	fmt.Println(query)
	fmt.Println("result:")
	for i := range res.Tuples {
		fmt.Printf("  class %d  ->  %d\n", res.Tuples[i][0], res.Annot[i])
	}
	// Class 1: person 1 pays 1200·(100−20), person 2 pays 2000·(100−50);
	// class 2's only record fails cost > 500.
	want := map[uint64]uint64{1: 1200*80 + 2000*50}
	if res.Len() != len(want) {
		log.Fatalf("secure result has %d classes, expected %d", res.Len(), len(want))
	}
	for i := range res.Tuples {
		if class := res.Tuples[i][0]; res.Annot[i] != want[class] {
			log.Fatalf("class %d: secure sum %d, expected %d", class, res.Annot[i], want[class])
		}
	}
}
