// Differentially private join counting (paper §7, "protecting privacy
// against query results"): the parties compute how many of their records
// link up — but the revealed count carries Laplace noise calibrated to
// the join sensitivity, so Alice cannot pin down the exact number. The
// sensitivity Δ is the product of the parties' maximum join-key
// multiplicities (Johnson-Near-Song), computed inside a garbled circuit;
// Bob folds the noise into his share before the reveal, so the exact
// count never exists outside shares.
//
// Run with: go run ./examples/dp_count
package main

import (
	"context"
	"fmt"
	"log"

	"secyan"
	"secyan/internal/core"
	"secyan/internal/dp"
	"secyan/internal/mpc"
)

func main() {
	mine := secyan.NewRelation("k")
	yours := secyan.NewRelation("k")
	for i := 0; i < 60; i++ {
		mine.Append([]uint64{uint64(i % 20)}, 1)
		yours.Append([]uint64{uint64(i % 30)}, 1)
	}
	// True join count: k in 0..19 appears 3x in mine and 2x in yours
	// -> 20 * 3 * 2 = 120.
	const epsilon = 1.0

	q := &secyan.Query{
		Inputs: []secyan.Input{
			{Name: "mine", Owner: secyan.Alice, Schema: mine.Schema, N: mine.Len(), Rel: mine},
			{Name: "yours", Owner: secyan.Bob, Schema: yours.Schema, N: yours.Len(), Rel: yours},
		},
	}

	alice, bob := mpc.Pair(secyan.DefaultRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	run := func(p *mpc.Party) (uint64, error) {
		res, _, err := core.RunShared(context.Background(), p, q.For(p.Role), core.Options{})
		if err != nil {
			return 0, err
		}
		ownRel := mine
		if p.Role == mpc.Bob {
			ownRel = yours
		}
		myMax, err := dp.MaxMultiplicity(ownRel, []secyan.Attr{"k"})
		if err != nil {
			return 0, err
		}
		delta, err := dp.SensitivityProduct(p, myMax)
		if err != nil {
			return 0, err
		}
		if p.Role == mpc.Alice {
			fmt.Printf("join-count sensitivity Δ = %d (max multiplicities %d × peer's)\n", delta, myMax)
		}
		return dp.NoisyReveal(p, res, delta, epsilon)
	}
	noisy, _, err := mpc.Run2PC(alice, bob, run, run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("noisy shared-link count: %d (true count 120, Laplace scale Δ/ε = %.1f)\n",
		int32(uint32(noisy)), float64(6)/epsilon)
}
