package secyan

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"testing"

	"secyan/internal/transport"
)

// resultKey flattens a result relation into a canonical sorted form for
// comparison across runs.
func resultKey(r *Relation) []string {
	out := make([]string, r.Len())
	for i := range r.Tuples {
		out[i] = fmt.Sprintf("%v=%d", r.Tuples[i], r.Annot[i])
	}
	sort.Strings(out)
	return out
}

// TestQueryTranscriptEquivalenceAcrossWorkers runs a full Yannakakis
// query (PSI, oblivious semijoins and aggregation, garbled circuits over
// IKNP OT) at worker counts 1 and 4 and requires identical results and
// identical transport.Stats — bytes, messages, and rounds — on both
// endpoints. This is the end-to-end transcript-determinism guarantee:
// parallel kernels must not change a single byte of communication.
func TestQueryTranscriptEquivalenceAcrossWorkers(t *testing.T) {
	_, _, _, build := exampleQuery()

	type outcome struct {
		result         []string
		aStats, bStats Stats
	}
	runAt := func(workers int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		alice, bob := OpenLocal()
		defer alice.Close()
		defer bob.Close()
		res, _, err := queryBoth(alice, bob, build)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return outcome{resultKey(res), alice.Stats().Data, bob.Stats().Data}
	}

	ref := runAt(1)
	for _, workers := range []int{4} {
		got := runAt(workers)
		if len(got.result) != len(ref.result) {
			t.Fatalf("workers=%d: %d result tuples, serial %d", workers, len(got.result), len(ref.result))
		}
		for i := range ref.result {
			if got.result[i] != ref.result[i] {
				t.Fatalf("workers=%d: result row %q, serial %q", workers, got.result[i], ref.result[i])
			}
		}
		if got.aStats != ref.aStats {
			t.Fatalf("workers=%d: alice stats %+v, serial %+v", workers, got.aStats, ref.aStats)
		}
		if got.bStats != ref.bStats {
			t.Fatalf("workers=%d: bob stats %+v, serial %+v", workers, got.bStats, ref.bStats)
		}
	}
}

// tcpSessions joins Alice and Bob over a real loopback TCP socket instead
// of the in-memory pipe.
func tcpSessions(t *testing.T, opts ...Option) (alice, bob *Session) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	acc := make(chan net.Conn, 1)
	accErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		accErr <- err
		acc <- c
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := <-accErr; err != nil {
		t.Fatalf("accept: %v", err)
	}
	server := <-acc
	if alice, err = Open(Alice, transport.NewConn(server), opts...); err != nil {
		t.Fatalf("open alice: %v", err)
	}
	if bob, err = Open(Bob, transport.NewConn(client), opts...); err != nil {
		t.Fatalf("open bob: %v", err)
	}
	t.Cleanup(func() {
		alice.Close()
		bob.Close()
	})
	return alice, bob
}

// TestQueryOverTCP runs the example query end to end over the TCP
// transport, checking that protocol results and payload accounting match
// the in-memory transport exactly (framing overhead is excluded from
// Stats by design).
func TestQueryOverTCP(t *testing.T) {
	_, _, _, build := exampleQuery()

	memAlice, memBob := OpenLocal()
	defer memAlice.Close()
	defer memBob.Close()
	memRes, _, err := queryBoth(memAlice, memBob, build)
	if err != nil {
		t.Fatalf("in-memory run: %v", err)
	}

	alice, bob := tcpSessions(t)
	res, bobRes, err := queryBoth(alice, bob, build)
	if err != nil {
		t.Fatalf("tcp run: %v", err)
	}
	if bobRes != nil {
		t.Fatal("Bob must receive nil")
	}

	want := resultKey(memRes)
	got := resultKey(res)
	if len(got) != len(want) {
		t.Fatalf("tcp run returned %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tcp result row %q, want %q", got[i], want[i])
		}
	}
	if a, m := alice.Stats().Data, memAlice.Stats().Data; a != m {
		t.Fatalf("tcp alice stats %+v, in-memory %+v", a, m)
	}
	if b, m := bob.Stats().Data, memBob.Stats().Data; b != m {
		t.Fatalf("tcp bob stats %+v, in-memory %+v", b, m)
	}
}
