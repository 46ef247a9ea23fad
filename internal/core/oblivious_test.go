package core

import (
	"fmt"
	"reflect"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/transport"
)

// lenConn records the length of every message sent through it.
type lenConn struct {
	transport.Conn
	lens []int
}

func (c *lenConn) Send(b []byte) error {
	c.lens = append(c.lens, len(b))
	return c.Conn.Send(b)
}

// TestOperatorTranscriptsDataIndependent asserts obliviousness at the
// single-operator level (requirement 4 of the paper's operator contract,
// §6): two databases of equal public sizes but different keys, group
// structure, zero patterns and annotations must produce the same
// sequence of message lengths from each party. The chain covers π^⊕
// (sort OEP, prefix sums, group-shift OEP), π¹, the semijoin, the reveal
// of nonzero rows with either party holding them, and the k = 2 and
// k = 3 annotation products.
func TestOperatorTranscriptsDataIndependent(t *testing.T) {
	run := func(variant uint64) [2][]int {
		parent := relation.New(relation.MustSchema("a", "k"))
		child := relation.New(relation.MustSchema("k"))
		for i := uint64(0); i < 24; i++ {
			parent.Append([]uint64{i + variant*1000, i * variant % 7}, (i^variant)%3)
		}
		for i := uint64(0); i < 9; i++ {
			child.Append([]uint64{i + variant}, (i+variant)%4)
		}
		ca, cb := transport.Pair()
		defer ca.Close()
		defer cb.Close()
		la, lb := &lenConn{Conn: ca}, &lenConn{Conn: cb}
		alice, bob := mpc.NewParty(mpc.Alice, la, testRing), mpc.NewParty(mpc.Bob, lb, testRing)
		do := func(p *mpc.Party) (any, error) {
			var pr, cr *relation.Relation
			if p.Role == mpc.Alice {
				pr = parent
			} else {
				cr = child
			}
			ps, err := ShareInput(p, mpc.Alice, pr, parent.Schema, parent.Len())
			if err != nil {
				return nil, err
			}
			cs, err := ShareInput(p, mpc.Bob, cr, child.Schema, child.Len())
			if err != nil {
				return nil, err
			}
			var dg relation.DummyGen
			agg, err := Aggregate(p, &dg, ps, []A{"k"})
			if err != nil {
				return nil, err
			}
			ind, err := ProjectOne(p, &dg, cs, []A{"k"})
			if err != nil {
				return nil, err
			}
			joined, err := SemijoinInto(p, &dg, agg, ind)
			if err != nil {
				return nil, err
			}
			for _, s := range []*SharedRelation{joined, cs} {
				if _, err := revealNonzeroRows(p, s, 0); err != nil {
					return nil, err
				}
			}
			f := [][]uint64{joined.Annot[:9], cs.Annot, agg.Annot[9:18]}
			for _, k := range []int{2, 3} {
				if _, err := productTree(p, f[:k], 0); err != nil {
					return nil, fmt.Errorf("product k=%d: %w", k, err)
				}
			}
			return nil, nil
		}
		if _, _, err := mpc.Run2PC(alice, bob, do, do); err != nil {
			t.Fatal(err)
		}
		return [2][]int{la.lens, lb.lens}
	}
	if t1, t2 := run(1), run(7); !reflect.DeepEqual(t1, t2) {
		t.Fatalf("operator transcript depends on data:\nalice %v vs %v\nbob %v vs %v", t1[0], t2[0], t1[1], t2[1])
	}
}
