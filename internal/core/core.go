// Package core implements the secure Yannakakis protocol of the paper
// (§6): oblivious projection-aggregation, oblivious semijoins, the
// oblivious join, and the three-phase driver that composes them over a
// free-connex join tree. All operators obey the composition contract of
// §6: relations are held by one party; annotations flow in additive
// shares; output relation sizes depend only on public parameters; and
// dummy tuples carry shares of zero.
package core

import (
	"fmt"

	"secyan/internal/mpc"
	"secyan/internal/relation"
	"secyan/internal/transport"
)

// SharedRelation is one party's view of a relation in the protocol: the
// holder has the tuples; both parties hold additive shares of the
// annotations, aligned with the holder's tuple order. Schema and size are
// public.
type SharedRelation struct {
	Holder mpc.Role
	Schema relation.Schema
	N      int
	// Rel is non-nil only on the holder's side. Its Annot field is unused
	// (annotations live in Annot below).
	Rel *relation.Relation
	// Annot is this party's share vector (length N).
	Annot []uint64
	// Plain marks the §6.5 fast-path state: the annotations are known in
	// plaintext to the holder. Representationally this is the degenerate
	// sharing (v, 0) — the holder's "share" is the value and the peer's
	// is zero — so every share-based operator still applies; operators
	// additionally exploit it for free local aggregation, plain-payload
	// PSI and direct reveals. Plain is public protocol state: both
	// parties always agree on it.
	Plain bool
}

// state is s's public protocol state, all the decision functions read.
func (s *SharedRelation) state() nodeState {
	return nodeState{schema: s.Schema, n: s.N, plain: s.Plain, holder: s.Holder}
}

// ShareInput turns an owner's plaintext annotated relation into a
// SharedRelation: the owner keeps the tuples and secret-shares the
// annotations with the peer. The non-owner calls it with rel == nil and
// the public schema and size.
func ShareInput(p *mpc.Party, owner mpc.Role, rel *relation.Relation, schema relation.Schema, n int) (*SharedRelation, error) {
	return input(p, owner, rel, schema, n, false)
}

// NewPlainInput wraps an owner's relation without sharing its
// annotations — the starting state of the §6.5 optimization. No
// communication happens: the holder's share vector carries the plaintext
// values and the peer's is all zeros.
func NewPlainInput(p *mpc.Party, owner mpc.Role, rel *relation.Relation, schema relation.Schema, n int) (*SharedRelation, error) {
	return input(p, owner, rel, schema, n, true)
}

// input is NewPlainInput when plain, else ShareInput.
func input(p *mpc.Party, owner mpc.Role, rel *relation.Relation, schema relation.Schema, n int, plain bool) (*SharedRelation, error) {
	s := &SharedRelation{Holder: owner, Schema: schema, N: n, Plain: plain}
	var err error
	switch {
	case p.Role != owner && plain:
		s.Annot = make([]uint64, n)
	case p.Role != owner:
		s.Annot, err = p.RecvShares(n)
	case rel == nil:
		return nil, fmt.Errorf("core: owner must supply the relation")
	default:
		s.Schema, s.N, s.Rel, s.Annot = rel.Schema, rel.Len(), rel, make([]uint64, rel.Len())
		for i, v := range rel.Annot {
			s.Annot[i] = p.Ring.Mask(v)
		}
		if !plain {
			s.Annot, err = p.ShareToPeer(s.Annot)
		}
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// RevealAnnotations reconstructs the annotation values at the designated
// receiver; the peer gets nil. Only call on relations whose annotations
// are part of the query results (§5.1).
func RevealAnnotations(p *mpc.Party, s *SharedRelation, receiver mpc.Role) ([]uint64, error) {
	if p.Role == receiver {
		return p.RecvReveal(s.Annot)
	}
	return nil, p.RevealToPeer(s.Annot)
}

// sendPublicSize / recvPublicSize exchange a size that the model treats
// as public (e.g. the output size OUT in §6.3); the receiver rejects one
// above bound.
func sendPublicSize(c transport.Conn, n int) error { return transport.SendUint64(c, uint64(n)) }

func recvPublicSize(c transport.Conn, bound int) (int, error) {
	v, err := transport.RecvUint64(c, "core: public size")
	if err != nil {
		return 0, err
	}
	if v > uint64(bound) {
		return 0, fmt.Errorf("core: implausible public size %d, above its bound %d", v, bound)
	}
	return int(v), nil
}
