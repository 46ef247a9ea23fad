package secyan_test

import (
	"context"
	"fmt"
	"log"
	"sort"

	"secyan"
)

// Example runs the paper's Example 1.1 through the public API: the
// insurer (Alice) learns per-class expected payouts; the hospital (Bob)
// learns nothing.
func Example() {
	policies := secyan.NewRelation("person", "coinsurance")
	policies.Append([]uint64{1, 20}, 80) // annotation: 100*(1-coinsurance)
	policies.Append([]uint64{2, 50}, 50)
	records := secyan.NewRelation("person", "disease")
	records.Append([]uint64{1, 100}, 1000) // annotation: cost
	records.Append([]uint64{2, 101}, 500)
	classes := secyan.NewRelation("disease", "class")
	classes.Append([]uint64{100, 1}, 1)
	classes.Append([]uint64{101, 2}, 1)

	queryFor := func(role secyan.Role) *secyan.Query {
		q := &secyan.Query{
			Inputs: []secyan.Input{
				{Name: "policies", Owner: secyan.Alice, Schema: policies.Schema, N: policies.Len()},
				{Name: "records", Owner: secyan.Bob, Schema: records.Schema, N: records.Len()},
				{Name: "classes", Owner: secyan.Alice, Schema: classes.Schema, N: classes.Len()},
			},
			Output: []secyan.Attr{"class"},
		}
		if role == secyan.Alice {
			q.Inputs[0].Rel = policies
			q.Inputs[2].Rel = classes
		} else {
			q.Inputs[1].Rel = records
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
	type row struct{ class, payout uint64 }
	var rows []row
	for i := range res.Relation.Tuples {
		rows = append(rows, row{res.Relation.Tuples[i][0], res.Relation.Annot[i]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].class < rows[j].class })
	for _, r := range rows {
		fmt.Printf("class %d: %d\n", r.class, r.payout)
	}
	// Output:
	// class 1: 80000
	// class 2: 25000
}

// ExampleSession_ExecSQL evaluates the same query written as SQL.
func ExampleSession_ExecSQL() {
	records := secyan.NewRelation("person", "disease", "cost")
	records.Append([]uint64{1, 100, 1000}, 1)
	classes := secyan.NewRelation("disease", "class")
	classes.Append([]uint64{100, 1}, 1)

	catalogFor := func(role secyan.Role) *secyan.SQLCatalog {
		give := func(owner secyan.Role, r *secyan.Relation) *secyan.Relation {
			if role == owner {
				return r
			}
			return nil
		}
		return &secyan.SQLCatalog{Tables: map[string]*secyan.SQLTable{
			"records": secyan.NewSQLTable(secyan.Bob, records.Schema.Attrs, records.Len(), give(secyan.Bob, records)),
			"classes": secyan.NewSQLTable(secyan.Alice, classes.Schema.Attrs, classes.Len(), give(secyan.Alice, classes)),
		}}
	}
	const query = `SELECT classes.class, SUM(records.cost)
		FROM records, classes WHERE records.disease = classes.disease
		GROUP BY classes.class`

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
	for i := range res.Tuples {
		fmt.Printf("class %d: %d\n", res.Tuples[i][0], res.Annot[i])
	}
	// Output:
	// class 1: 1000
}
