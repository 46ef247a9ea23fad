package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/transport"
)

// runBoth runs q on alice and bob, each on the plan its own compile
// gives after alter (nil: unaltered), and returns each party's error. A
// failed party closes its end, as Run2PC does, so that its peer returns
// too; a run that does not end within a minute fails the test.
func runBoth(t *testing.T, q *Query, alice, bob *mpc.Party, alter func(mpc.Role, *Plan)) (errs [2]error) {
	t.Helper()
	run := func(p *mpc.Party) (any, error) {
		plan, err := ExplainOpts(q, p.Ring.Bits, Options{})
		if err == nil {
			if alter != nil {
				alter(p.Role, plan)
			}
			_, _, _, err = execPlan(context.Background(), p, q.For(p.Role), plan, false)
		}
		errs[p.Role] = err
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		mpc.Run2PC(alice, bob, run, run)
		alice.Conn.Close()
		bob.Conn.Close()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("a party hangs")
	}
	return errs
}

// TestAlteredPlanStepFails alters one compiled step on one party — drops
// an exchange, flips a direct PSI to the indexed one, changes an OEP's
// size — and runs the query. The altered party's operator meets the
// changed step when it takes the exchange, and fails with an
// *ExchangeError naming the step and the exchange's index before it
// sends anything of it; its peer, blocked on a receive, returns an error
// once the altered party hangs up.
func TestAlteredPlanStepFails(t *testing.T) {
	q := example11Query(rand.New(rand.NewSource(7)), 12, 20)
	// The reduce-phase semijoin of a plain child across parties: seed,
	// KKRT batch, hint, ρ-OT, bins circuit, bins→tuples OEP, products.
	psiStep := func(plan *Plan) *PlanStep {
		for i := range plan.Steps {
			if st := &plan.Steps[i]; st.variant == varPSI {
				return st
			}
		}
		t.Fatal("the plan has no direct PSI")
		return nil
	}
	plan, err := ExplainOpts(q, testRing.Bits, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := psiStep(plan)
	oepAt := len(want.exchanges) - 2
	if x := want.exchanges[oepAt]; x.kind != exOT || len(want.exchanges) != 7 {
		t.Fatalf("unexpected exchanges of %s: %v", want.label(), want.exchanges)
	}
	for _, tc := range []struct {
		name  string
		party mpc.Role
		alter func(*PlanStep)
		index int
	}{
		{"drop the KKRT batch", mpc.Alice, func(st *PlanStep) {
			st.exchanges = append(st.exchanges[:1:1], st.exchanges[2:]...)
		}, 1},
		{"flip to the indexed PSI", mpc.Bob, func(st *PlanStep) { st.variant = varIndexedPSI }, 0},
		{"change the OEP's m", mpc.Alice, func(st *PlanStep) { st.exchanges[oepAt].m++ }, oepAt},
		{"drop the product batch", mpc.Bob, func(st *PlanStep) {
			st.exchanges = st.exchanges[:len(st.exchanges)-1]
		}, len(want.exchanges) - 1},
	} {
		alice, bob := mpc.Pair(testRing)
		errs := runBoth(t, q, alice, bob, func(r mpc.Role, plan *Plan) {
			if r == tc.party {
				tc.alter(psiStep(plan))
			}
		})
		altered, peer := errs[tc.party], errs[tc.party.Other()]
		var xe *ExchangeError
		if !errors.As(altered, &xe) || xe.Step != want.label() || xe.Index != tc.index {
			t.Fatalf("%s: %v got %v, want an *ExchangeError at %s exchange %d", tc.name, tc.party, altered, want.label(), tc.index)
		}
		if !strings.HasPrefix(altered.Error(), want.label()+": ") {
			t.Fatalf("%s: error %q does not name the step", tc.name, altered)
		}
		if peer == nil {
			t.Fatalf("%s: the peer %v returned no error", tc.name, tc.party.Other())
		}
	}
}

// sizeRewriter rewrites the first message its party sends once armed:
// the OUT of local-join, replaced by out.
type sizeRewriter struct {
	transport.Conn
	armed bool
	out   uint64
}

func (c *sizeRewriter) Send(b []byte) error {
	if c.armed {
		c.armed = false
		b = binary.LittleEndian.AppendUint64(nil, c.out)
	}
	return c.Conn.Send(b)
}

// TestClaimedJoinSizeBounded plays an Alice who claims one more output
// row than the joined relations can yield: Bob must reject the size at
// local-join, before he sizes anything by it, with an error labelled by
// the step — and no panic, no hang and no goroutine left behind.
func TestClaimedJoinSizeBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rels := []*relation.Relation{relation.New(relation.MustSchema("g1", "k")),
		relation.New(relation.MustSchema("k", "m")), relation.New(relation.MustSchema("m", "g2"))}
	for i, n := range []int{6, 4, 5} {
		for j := 0; j < n; j++ {
			rels[i].Append([]uint64{uint64(rng.Intn(3)), uint64(rng.Intn(3))}, 1+uint64(rng.Intn(9)))
		}
	}
	q := &Query{Output: []relation.Attr{"g1", "k", "m", "g2"}}
	for i, r := range rels {
		q.Inputs = append(q.Inputs, Input{Name: string(rune('R' + i)), Owner: mpc.Role(i % 2),
			Schema: r.Schema, N: r.Len(), Rel: r})
	}
	plan, err := ExplainOpts(q, testRing.Bits, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound, localJoin := 1, -1
	for _, i := range plan.joinOrder {
		bound *= q.Inputs[i].N
	}
	for i := range plan.Steps {
		if plan.Steps[i].kind == stepLocalJoin {
			localJoin = i
		}
	}
	if len(plan.joinOrder) != 3 || localJoin < 0 {
		t.Fatalf("no three-way join phase: %v", plan.Remaining)
	}

	base := runtime.NumGoroutine()
	ca, cb := transport.Pair()
	rw := &sizeRewriter{Conn: ca, out: uint64(bound) + 1}
	alice, bob := mpc.NewParty(mpc.Alice, rw, testRing), mpc.NewParty(mpc.Bob, cb, testRing)
	steps := 0
	alice.Observer = func(TraceStep) {
		if steps++; steps == localJoin {
			rw.armed = true // Alice's next message is OUT
		}
	}
	errs := runBoth(t, q, alice, bob, nil)
	label := plan.Steps[localJoin].label()
	if err := errs[mpc.Bob]; err == nil || !strings.HasPrefix(err.Error(), label+": ") || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("Bob: %v, want %s rejecting OUT = %d", err, label, bound+1)
	}
	if errs[mpc.Alice] == nil {
		t.Fatal("Alice returned no error")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
		}
	}
}
