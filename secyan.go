// Package secyan is a from-scratch Go implementation of Secure
// Yannakakis (Wang & Yi, SIGMOD 2021): a secure two-party computation
// protocol that evaluates free-connex join-aggregate queries over the
// parties' private relations with cost Õ(IN + OUT) — linear in the data
// — instead of the Õ(N^k) a monolithic garbled circuit requires.
//
// The two parties, Alice and Bob, each own some of the query's
// relations. They run the protocol over a Conn; Alice (the designated
// receiver) learns the query results and nothing else, Bob learns
// nothing beyond public parameters. The implementation is semi-honest
// and entirely software-based: oblivious transfer, garbled circuits,
// cuckoo-hash PSI and oblivious switching networks are built from the
// standard library's crypto primitives (see DESIGN.md for the full
// inventory).
//
// A protocol runs through a Session, and only through one: each party
// opens one Session over its end of a connection and issues
// context-first calls on it, any number of which may run concurrently —
// every execution gets its own logical stream over the shared
// transport:
//
//	alice, bob := secyan.OpenLocal()
//	defer alice.Close()
//	defer bob.Close()
//	q := &secyan.Query{
//		Inputs: []secyan.Input{
//			{Name: "visits", Owner: secyan.Bob, Schema: visits.Schema, N: visits.Len(), Rel: visits},
//			{Name: "plans", Owner: secyan.Alice, Schema: plans.Schema, N: plans.Len(), Rel: plans},
//		},
//		Output: []secyan.Attr{"class"},
//	}
//	// Both parties run their half concurrently; each party's query
//	// carries only its own relations (peer Inputs have Rel = nil).
//	go bob.Query(ctx, qBob)
//	res, err := alice.Query(ctx, qAlice) // res.Relation: Alice's rows
//
// For two processes, open the session over a TCP conn (ListenSession /
// DialSession) and add WithHeartbeat for peer-liveness detection.
//
// There is one Option type. Options given at Open are the session's
// defaults; the same options given to a call (Query, Precompute,
// RevealRatio, ExecSQL, Explain) override them for that call; the
// result is resolved once, at admission, into the single value the
// planner, the offline phase and the executor all see.
package secyan

import (
	"fmt"
	"io"

	"secyan/internal/core"
	"secyan/internal/jointree"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/relation"
	"secyan/internal/share"
	"secyan/internal/transport"
	"secyan/internal/yannakakis"
)

// Re-exported building blocks. The underlying packages live in internal/;
// these aliases are the supported public surface.
type (
	// Attr names a relation attribute.
	Attr = relation.Attr
	// Schema is an ordered attribute list.
	Schema = relation.Schema
	// Relation is an annotated relation: tuples of uint64 values plus a
	// semiring annotation per tuple.
	Relation = relation.Relation
	// DummyGen hands out dummy attribute values for padding.
	DummyGen = relation.DummyGen
	// Ring is the annotation ring Z_{2^Bits}.
	Ring = share.Ring
	// Role identifies a party (Alice or Bob).
	Role = mpc.Role
	// Conn is the message transport between the parties.
	Conn = transport.Conn
	// Input declares one base relation of a query.
	Input = core.Input
	// Query is a free-connex join-aggregate query over owned relations.
	Query = core.Query
	// SharedResult is an un-revealed query result (annotations still
	// secret-shared), used for query composition.
	SharedResult = core.SharedResult
	// Stats counts the traffic of a connection.
	Stats = transport.Stats
	// Trace is the per-step record of a protocol run (or of an offline
	// Precompute pass).
	Trace = core.Trace
)

// Party roles.
const (
	// Alice is the designated receiver of query results.
	Alice = mpc.Alice
	// Bob is the other party.
	Bob = mpc.Bob
)

// DefaultRing is the 32-bit annotation ring used in the paper's
// experiments (ℓ = 32, §8.2).
var DefaultRing = share.Default

// Errors exposed by the planner and evaluators.
var (
	// ErrCyclic reports a query without a join tree.
	ErrCyclic = jointree.ErrCyclic
	// ErrNotFreeConnex reports an acyclic query whose output attributes
	// violate the free-connex condition.
	ErrNotFreeConnex = jointree.ErrNotFreeConnex
	// ErrMissingRelation reports an evaluation over a query input whose
	// relation was not attached. errors.As with *MissingRelationError
	// recovers the input name.
	ErrMissingRelation = core.ErrMissingRelation
)

// MissingRelationError is the typed form of ErrMissingRelation; its
// Input field names the relation that was absent.
type MissingRelationError = core.MissingRelationError

// NewRelation returns an empty relation over the given attributes; panics
// on duplicate names (use relation construction early in setup).
func NewRelation(attrs ...Attr) *Relation {
	return relation.New(relation.MustSchema(attrs...))
}

// CheckFreeConnex verifies that the query is answerable by the protocol,
// returning ErrCyclic, ErrNotFreeConnex, or nil.
func CheckFreeConnex(q *Query, output []Attr) error {
	_, err := q.Hypergraph().Plan(output)
	return err
}

// Plaintext evaluates the query in the clear with the (non-private)
// Yannakakis engine — the baseline of the paper's experiments and a
// reference for testing. Every Input must carry its relation.
func Plaintext(q *Query, ring Ring) (*Relation, error) {
	rels := make([]*Relation, len(q.Inputs))
	for i, in := range q.Inputs {
		if in.Rel == nil {
			return nil, fmt.Errorf("secyan: plaintext evaluation needs all relations: %w", &core.MissingRelationError{Input: in.Name})
		}
		rels[i] = in.Rel
	}
	tree, err := q.Hypergraph().Plan(q.Output)
	if err != nil {
		return nil, err
	}
	res, err := yannakakis.Run(tree, rels, q.Output, relation.RingSemiring{Bits: ring.OrDefault().Bits})
	if err != nil {
		return nil, err
	}
	return res.DropZeroAnnotated(), nil
}

// Plan is an execution plan with per-step communication estimates; see
// Explain.
type Plan = core.Plan

// Explain derives the execution plan and a communication estimate for a
// query from public parameters only (both parties compute identical
// plans — a restatement of obliviousness), without a session. Options:
// WithRing selects the annotation ring (default DefaultRing) and WithEstOut
// the assumed output size for the join-phase steps of multi-survivor
// queries.
func Explain(q *Query, opts ...Option) (*Plan, error) {
	cfg := buildConfig(opts)
	return core.ExplainOpts(q, cfg.ring.Bits, cfg.plan())
}

// Query-scoped observability (see DESIGN.md §12): every execution on a
// Session carries a process-local session ID and query ID; the event
// log streams its lifecycle and the flight recorder retains one record
// per completed run. All of it is process-local bookkeeping — a fully
// observed run is byte-identical on the wire to an unobserved one.

// QueryRecord is one completed execution's flight-recorder record:
// plan digest, per-phase bytes/rounds/wall time, peer, and error/fault
// blame.
type QueryRecord = obs.QueryRecord

// Event is one structured lifecycle event retained by the event log.
type Event = obs.Event

// FlightRecords returns the flight recorder's retained completed-query
// records, newest first. Recording requires EnableObservability (or
// ServeDebug / SetFlightCapacity, which enable it).
func FlightRecords() []QueryRecord { return obs.Flight().Records() }

// SetFlightCapacity resizes the flight recorder to retain the last n
// completed-query records and enables observation.
func SetFlightCapacity(n int) {
	obs.Flight().SetCapacity(n)
	obs.Enable()
}

// LogEventsJSON mirrors the structured event log to w as JSON lines
// (session/query lifecycle, precompute pool hits,
// transport faults) and enables observation. A nil w detaches the sink.
func LogEventsJSON(w io.Writer) { obs.Events().SetJSONSink(w) }

// RecentEvents returns up to max retained events, newest first
// (max <= 0 returns all).
func RecentEvents(max int) []Event { return obs.Events().Recent(max) }

// EnableObservability turns on metric collection, the event log, the
// flight recorder and the live step status for this process (the
// programmatic equivalent of starting the obs debug server).
func EnableObservability() { obs.Enable() }
