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

	catalogFor := func(role secyan.Role) *secyan.SQLCatalog {
		give := func(owner secyan.Role, r *secyan.Relation) *secyan.Relation {
			if role == owner {
				return r
			}
			return nil
		}
		return &secyan.SQLCatalog{Tables: map[string]*secyan.SQLTable{
			"policies": secyan.NewSQLTable(secyan.Alice, policies.Schema.Attrs, policies.Len(), give(secyan.Alice, policies)),
			"records":  secyan.NewSQLTable(secyan.Bob, records.Schema.Attrs, records.Len(), give(secyan.Bob, records)),
			"classes":  secyan.NewSQLTable(secyan.Alice, classes.Schema.Attrs, classes.Len(), give(secyan.Alice, classes)),
		}}
	}

	alice, bob := secyan.OpenLocal()
	defer alice.Close()
	defer bob.Close()
	ctx := context.Background()
	bobDone := make(chan error, 1)
	go func() {
		_, err := bob.ExecSQL(ctx, query, catalogFor(secyan.Bob))
		bobDone <- err
	}()
	res, err := alice.ExecSQL(ctx, query, catalogFor(secyan.Alice))
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
}
