package secyan

import (
	"context"
	"net"
	"testing"
	"time"
)

// exampleQuery reproduces the quickstart (paper Example 1.1) through the
// public API.
func exampleQuery() (policies, records, classes *Relation, build func(Role) *Query) {
	policies = NewRelation("person", "coinsurance")
	policies.Append([]uint64{1, 20}, 80)
	policies.Append([]uint64{2, 50}, 50)
	records = NewRelation("person", "disease")
	records.Append([]uint64{1, 100}, 1000)
	records.Append([]uint64{2, 100}, 2000)
	records.Append([]uint64{2, 101}, 500)
	classes = NewRelation("disease", "class")
	classes.Append([]uint64{100, 7}, 1)
	classes.Append([]uint64{101, 8}, 1)
	q := &Query{
		Inputs: []Input{
			{Name: "policies", Owner: Alice, Schema: policies.Schema, N: policies.Len(), Rel: policies},
			{Name: "records", Owner: Bob, Schema: records.Schema, N: records.Len(), Rel: records},
			{Name: "classes", Owner: Alice, Schema: classes.Schema, N: classes.Len(), Rel: classes},
		},
		Output: []Attr{"class"},
	}
	build = q.For
	return
}

// both runs f on the two sessions concurrently — the two parties of one
// execution, Bob in the background — and returns each side's value and
// the first error.
func both[T any](alice, bob *Session, f func(*Session) (T, error)) (a, b T, err error) {
	type out struct {
		v   T
		err error
	}
	ch := make(chan out, 1)
	go func() {
		v, err := f(bob)
		ch <- out{v, err}
	}()
	a, err = f(alice)
	bo := <-ch
	if err == nil {
		err = bo.err
	}
	return a, bo.v, err
}

// queryBoth runs one query on both sessions, each party attaching its
// own relations, and returns Alice's and Bob's revealed relations.
func queryBoth(alice, bob *Session, build func(Role) *Query, opts ...Option) (a, b *Relation, err error) {
	return both(alice, bob, func(s *Session) (*Relation, error) {
		res, err := s.Query(context.Background(), build(s.role), opts...)
		return res.Relation, err
	})
}

func TestPublicAPIEndToEnd(t *testing.T) {
	_, _, _, build := exampleQuery()
	alice, bob := OpenLocal()
	defer alice.Close()
	defer bob.Close()

	res, bobRes, err := queryBoth(alice, bob, build)
	if err != nil {
		t.Fatal(err)
	}
	if bobRes != nil {
		t.Fatal("Bob must receive nil")
	}
	got := map[uint64]uint64{}
	for i := range res.Tuples {
		got[res.Tuples[i][0]] = res.Annot[i]
	}
	// class 7: p1 1000*80 + p2 2000*50 = 180000; class 8: p2 500*50 = 25000.
	if got[7] != 180000 || got[8] != 25000 {
		t.Fatalf("results: %v", got)
	}
}

func TestPublicAPIPlaintextReference(t *testing.T) {
	policies, records, classes, _ := exampleQuery()
	q := &Query{
		Inputs: []Input{
			{Name: "policies", Owner: Alice, Schema: policies.Schema, N: policies.Len(), Rel: policies},
			{Name: "records", Owner: Bob, Schema: records.Schema, N: records.Len(), Rel: records},
			{Name: "classes", Owner: Alice, Schema: classes.Schema, N: classes.Len(), Rel: classes},
		},
		Output: []Attr{"class"},
	}
	res, err := Plaintext(q, DefaultRing)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("plaintext rows: %d", res.Len())
	}
	// Missing relation must be rejected.
	q.Inputs[1].Rel = nil
	if _, err := Plaintext(q, DefaultRing); err == nil {
		t.Fatal("plaintext with missing relation accepted")
	}
}

func TestCheckFreeConnexErrors(t *testing.T) {
	r1 := NewRelation("a", "b")
	r2 := NewRelation("b", "c")
	r3 := NewRelation("a", "c")
	q := &Query{Inputs: []Input{
		{Name: "r1", Owner: Alice, Schema: r1.Schema},
		{Name: "r2", Owner: Bob, Schema: r2.Schema},
		{Name: "r3", Owner: Alice, Schema: r3.Schema},
	}}
	if err := CheckFreeConnex(q, nil); err != ErrCyclic {
		t.Fatalf("triangle: got %v", err)
	}
	q2 := &Query{Inputs: []Input{
		{Name: "r1", Owner: Alice, Schema: r1.Schema},
		{Name: "r2", Owner: Bob, Schema: r2.Schema},
	}}
	if err := CheckFreeConnex(q2, []Attr{"a", "c"}); err != ErrNotFreeConnex {
		t.Fatalf("non-free-connex: got %v", err)
	}
	if err := CheckFreeConnex(q2, []Attr{"b"}); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
}

func TestPublicAPIOverTCP(t *testing.T) {
	_, _, _, build := exampleQuery()
	// Take a port the kernel reports free instead of a fixed one, which
	// any other process on the host may hold.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	type ares struct {
		s   *Session
		err error
	}
	ch := make(chan ares, 1)
	go func() {
		s, err := ListenSession(addr, Alice)
		ch <- ares{s, err}
	}()
	// Dial until the listener is up, pacing the attempts so that a
	// loaded machine that schedules the listening goroutine late still
	// gets it bound in time.
	var bob *Session
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		bob, err = DialSession(addr, Bob)
		if err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	ar := <-ch
	if ar.err != nil {
		t.Fatalf("listen: %v", ar.err)
	}
	alice := ar.s
	defer alice.Close()
	defer bob.Close()

	res, _, err := queryBoth(alice, bob, build)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("TCP run rows: %d", res.Len())
	}
}
