package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/transport"
)

// TestConstantRounds checks the paper's round-complexity claim (§1.2):
// the number of communication rounds depends only on the query, not on
// the data size.
func TestConstantRounds(t *testing.T) {
	rounds := func(scaleRows int) int64 {
		rng := rand.New(rand.NewSource(5))
		q := example11Query(rng, scaleRows, scaleRows*2)
		alice, bob := mpc.Pair(testRing)
		defer alice.Conn.Close()
		defer bob.Conn.Close()
		run := func(p *mpc.Party, q *Query) (*relation.Relation, error) {
			rel, _, err := Run(context.Background(), p, q, Options{})
			return rel, err
		}
		_, _, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) (*relation.Relation, error) { return run(p, q.For(mpc.Alice)) },
			func(p *mpc.Party) (*relation.Relation, error) { return run(p, q.For(mpc.Bob)) },
		)
		if err != nil {
			t.Fatal(err)
		}
		return alice.Conn.Stats().Rounds
	}
	small := rounds(6)
	big := rounds(24)
	if small != big {
		t.Fatalf("rounds grew with data size: %d at 6 rows vs %d at 24 rows", small, big)
	}
	t.Logf("constant rounds verified: %d rounds at both sizes", small)
}

// corruptingConn wraps a Conn and replaces the payload of the nth
// received message with garbage of a (possibly wrong) length.
type corruptingConn struct {
	transport.Conn
	corruptAt int
	newLen    int
	count     int
}

func (c *corruptingConn) Recv() ([]byte, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	c.count++
	if c.count == c.corruptAt {
		bad := make([]byte, c.newLen)
		for i := range bad {
			bad[i] = 0xAB
		}
		return bad, nil
	}
	return m, nil
}

// TestMalformedMessagesErrorNotPanic injects wrong-length garbage into
// each of the first protocol messages Alice receives and requires a
// clean error (never a panic, never a hang) from both parties.
func TestMalformedMessagesErrorNotPanic(t *testing.T) {
	for corruptAt := 1; corruptAt <= 6; corruptAt++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic with corruption at message %d: %v", corruptAt, r)
				}
			}()
			rng := rand.New(rand.NewSource(11))
			q := example11Query(rng, 6, 8)
			ca, cb := transport.Pair()
			alice := mpc.NewParty(mpc.Alice, &corruptingConn{Conn: ca, corruptAt: corruptAt, newLen: 7}, testRing)
			bob := mpc.NewParty(mpc.Bob, cb, testRing)
			_, _, err := mpc.Run2PC(alice, bob,
				func(p *mpc.Party) (*relation.Relation, error) { return runQuery(p, q.For(mpc.Alice)) },
				func(p *mpc.Party) (*relation.Relation, error) { return runQuery(p, q.For(mpc.Bob)) },
			)
			if err == nil {
				t.Fatalf("corruption at message %d went unnoticed", corruptAt)
			}
		}()
	}
}

// TestImplausiblePublicSizeRejected guards the OUT exchange of the
// oblivious join against absurd values: above 2^40, or above the bound
// the receiver passes (the product of the joined relations' sizes).
func TestImplausiblePublicSizeRejected(t *testing.T) {
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()
	for _, tc := range []struct {
		v     uint64
		bound int
	}{{1 << 50, 1 << 40}, {1<<40 + 1, 1 << 40}, {43, 42}} {
		go func() { _ = transport.SendUint64(a, tc.v) }()
		if _, err := recvPublicSize(b, tc.bound); err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Fatalf("size %d above bound %d accepted: %v", tc.v, tc.bound, err)
		}
	}
	go func() { _ = transport.SendUint64(a, 42) }()
	n, err := recvPublicSize(b, 42)
	if err != nil || n != 42 {
		t.Fatalf("valid size rejected: %d %v", n, err)
	}
}

// TestShareInputValidation covers the input wrapper edge cases.
func TestShareInputValidation(t *testing.T) {
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	if _, err := ShareInput(alice, mpc.Alice, nil, relation.Schema{}, 0); err == nil {
		t.Error("owner without relation accepted")
	}
	if _, err := NewPlainInput(alice, mpc.Alice, nil, relation.Schema{}, 0); err == nil {
		t.Error("plain owner without relation accepted")
	}
	// Non-owner plain input needs no communication and carries zeros.
	sr, err := NewPlainInput(bob, mpc.Alice, nil, relation.MustSchema("a"), 3)
	if err != nil || len(sr.Annot) != 3 || !sr.Plain {
		t.Fatalf("plain non-owner: %+v, %v", sr, err)
	}
}

// TestSemijoinIntoSchemaValidation rejects children with attributes
// outside the parent.
func TestSemijoinIntoSchemaValidation(t *testing.T) {
	alice, _ := mpc.Pair(testRing)
	defer alice.Conn.Close()
	parent := &SharedRelation{Schema: relation.MustSchema("a"), N: 1, Annot: []uint64{0}}
	child := &SharedRelation{Schema: relation.MustSchema("zzz"), N: 1, Annot: []uint64{0}}
	var dg relation.DummyGen
	if _, err := SemijoinInto(alice, &dg, parent, child); err == nil {
		t.Fatal("child attrs outside parent accepted")
	}
}

// TestDuplicateChildKeysRejected: the reduce-phase semijoin requires a
// deduplicated child; a duplicate key must surface as an error, not as
// silent corruption.
func TestDuplicateChildKeysRejected(t *testing.T) {
	rel := relation.New(relation.MustSchema("k"))
	rel.Append([]uint64{7}, 1)
	rel.Append([]uint64{7}, 2)
	if _, err := childKeys(rel); err == nil {
		t.Fatal("duplicate child keys accepted")
	}
}

// TestPlainRevealRowsSizeChecked plays a Bob whose plain reveal message
// is short, long or of odd length: Alice's plain reveal must fail
// with a *transport.SizeError before decoding a row.
func TestPlainRevealRowsSizeChecked(t *testing.T) {
	alice, bob := mpc.Pair(testRing)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	const n, cols = 3, 2
	s := &SharedRelation{Holder: mpc.Bob, Schema: relation.MustSchema("a", "b"), N: n,
		Annot: make([]uint64, n), Plain: true}
	for _, tc := range []struct {
		name string
		len  int
	}{{"short", 8 * (n*cols - 1)}, {"long", 8 * (n*cols + 1)}, {"odd", 8*n*cols + 5}} {
		if err := bob.Conn.Send(make([]byte, tc.len)); err != nil {
			t.Fatal(err)
		}
		var se *transport.SizeError
		if _, err := revealRowsOf(alice, s); !errors.As(err, &se) || se.Got != tc.len || se.Want != 8*n*cols {
			t.Fatalf("%s: %v, want a *transport.SizeError{Got: %d, Want: %d}", tc.name, err, tc.len, 8*n*cols)
		}
	}
}
