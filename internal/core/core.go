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

	"secyan/internal/gc"
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

// IsHolder reports whether party p holds the tuples.
func (s *SharedRelation) IsHolder(p *mpc.Party) bool { return p.Role == s.Holder }

// ShareInput turns an owner's plaintext annotated relation into a
// SharedRelation: the owner keeps the tuples and secret-shares the
// annotations with the peer. The non-owner calls it with rel == nil and
// the public schema and size.
func ShareInput(p *mpc.Party, owner mpc.Role, rel *relation.Relation, schema relation.Schema, n int) (*SharedRelation, error) {
	return shareInputChunked(p, owner, rel, schema, n, 0)
}

// shareInputChunked is ShareInput with an explicit tuple-plane chunk size
// (0 = the default, negative = unbounded). The share exchange itself
// is a single message of public size regardless of chunking.
func shareInputChunked(p *mpc.Party, owner mpc.Role, rel *relation.Relation, schema relation.Schema, n, chunk int) (*SharedRelation, error) {
	if p.Role == owner {
		if rel == nil {
			return nil, fmt.Errorf("core: owner must supply the relation")
		}
		masked := make([]uint64, rel.Len())
		relation.Range(rel.Len(), chunk, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				masked[i] = p.Ring.Mask(rel.Annot[i])
			}
			return nil
		})
		mine, err := p.ShareToPeer(masked)
		if err != nil {
			return nil, err
		}
		return &SharedRelation{Holder: owner, Schema: rel.Schema, N: rel.Len(), Rel: rel, Annot: mine}, nil
	}
	shares, err := p.RecvShares(n)
	if err != nil {
		return nil, err
	}
	return &SharedRelation{Holder: owner, Schema: schema, N: n, Annot: shares}, nil
}

// NewPlainInput wraps an owner's relation without sharing its
// annotations — the starting state of the §6.5 optimization. No
// communication happens: the holder's share vector carries the plaintext
// values and the peer's is all zeros.
func NewPlainInput(p *mpc.Party, owner mpc.Role, rel *relation.Relation, schema relation.Schema, n int) (*SharedRelation, error) {
	if p.Role == owner {
		if rel == nil {
			return nil, fmt.Errorf("core: owner must supply the relation")
		}
		vals := make([]uint64, rel.Len())
		for i, v := range rel.Annot {
			vals[i] = p.Ring.Mask(v)
		}
		return &SharedRelation{Holder: owner, Schema: rel.Schema, N: rel.Len(), Rel: rel,
			Annot: vals, Plain: true}, nil
	}
	return &SharedRelation{Holder: owner, Schema: schema, N: n,
		Annot: make([]uint64, n), Plain: true}, nil
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

// appendShareBits appends the low ell bits of each share — the circuit
// operates modulo 2^ell, and additive shares survive truncation.
func appendShareBits(dst []bool, shares []uint64, ell int) []bool {
	for _, s := range shares {
		dst = gc.AppendBits(dst, s, ell)
	}
	return dst
}

// sendPublicSize / recvPublicSize exchange a size that the model treats
// as public (e.g. the output size OUT in §6.3).
func sendPublicSize(c transport.Conn, n int) error { return transport.SendUint64(c, uint64(n)) }

func recvPublicSize(c transport.Conn) (int, error) {
	v, err := transport.RecvUint64(c)
	if err != nil {
		return 0, err
	}
	if v > uint64(1)<<40 {
		return 0, fmt.Errorf("core: implausible public size %d", v)
	}
	return int(v), nil
}
