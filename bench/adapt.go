package main

// adapt.go is the benchmark's whole dependency on the program: every
// import of secyan/internal/... lives here, as a type alias, a function
// value or a thin wrapper that fixes the options the workloads use
// (ring ℓ = 32, cost-based backend, default chunk size). The signatures
// named here are the benchmark's contract with the program — a later
// change that must alter one keeps the old name compiling, so that the
// same benchmark source measures both sides of every comparison.

import (
	"context"
	"net"
	"time"

	"secyan/internal/bitutil"
	"secyan/internal/core"
	"secyan/internal/cuckoo"
	"secyan/internal/daemon"
	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/oep"
	"secyan/internal/ot"
	"secyan/internal/parallel"
	"secyan/internal/permnet"
	"secyan/internal/prf"
	"secyan/internal/psi"
	"secyan/internal/queries"
	"secyan/internal/relation"
	"secyan/internal/share"
	"secyan/internal/tpch"
	"secyan/internal/transport"
)

type (
	tpchDB       = tpch.DB
	querySpec    = queries.Spec
	relationT    = relation.Relation
	party        = mpc.Party
	session      = mpc.Session
	stepTrace    = mpc.StepTrace
	conn         = transport.Conn
	mux          = transport.Mux
	queryShape   = core.Query
	queryPlan    = core.Plan
	daemonT      = daemon.Daemon
	daemonClient = daemon.Client
	daemonSnap   = daemon.Snapshot
	daemonTenant = daemon.TenantStatus
	otSender     = ot.Sender
	otReceiver   = ot.Receiver
	gcCircuit    = gc.Circuit
	gcPreGarbled = gc.PreGarbled
	prfBlock     = prf.Block
)

const (
	alice = mpc.Alice
	bob   = mpc.Bob

	ringBits = 32
)

var ring = share.Ring{Bits: ringBits}

// ---- tpch / queries / yannakakis ------------------------------------

func generateDB(scaleMB float64, seed int64) *tpchDB {
	return tpch.Generate(tpch.Config{ScaleMB: scaleMB, Seed: seed})
}

// newRelationLike returns an empty relation with r's schema.
func newRelationLike(r *relationT) *relationT { return relation.New(r.Schema) }

var specs = map[string]func() querySpec{
	"Q3": queries.Q3, "Q10": queries.Q10, "Q18": queries.Q18,
}

// shapeOf is queries.PlanFor: the public shape (schemas, owners, sizes)
// of spec over db.
func shapeOf(spec querySpec, db *tpchDB) (*queryShape, error) { return queries.PlanFor(spec, db) }

// plainResult is the correctness oracle: Spec.Plain (the plaintext
// Yannakakis engine) over the same db and ring.
func plainResult(spec querySpec, db *tpchDB) (*relationT, error) { return spec.Plain(db, ringBits) }

// secureQuery is one party's half of the 2PC execution.
func secureQuery(spec querySpec, p *party, db *tpchDB) (*relationT, error) {
	return spec.SecureOpts(p, db, core.ExecOptions{})
}

// ---- core -----------------------------------------------------------

func explainPlan(q *queryShape) (*queryPlan, error) {
	return core.ExplainOpts(q, ringBits, core.PlanOptions{})
}

func precompute(p *party, q *queryShape) error {
	_, err := core.PrecomputeOpts(context.Background(), p, q, core.PlanOptions{})
	return err
}

// ---- mpc ------------------------------------------------------------

func newPair() (*party, *party) { return mpc.Pair(ring) }

func newSession(role mpc.Role, c conn) *session {
	return mpc.NewSession(role, c, ring, mpc.SessionConfig{})
}

func nextParty(s *session) (*party, error) {
	p, _, err := s.NextParty(mpc.PartyOpts{})
	return p, err
}

// run2PC runs f on both parties concurrently (mpc.Run2PC) and returns
// Alice's value.
func run2PC[T any](a, b *party, f func(*party) (T, error)) (T, error) {
	v, _, err := mpc.Run2PC(a, b, f, f)
	return v, err
}

// ---- transport ------------------------------------------------------

func pipePair() (conn, conn) { return transport.Pair() }

func wrapNetConn(nc net.Conn) conn { return transport.NewConn(nc) }

func newMux(c conn) *mux { return transport.NewMux(c, transport.MuxConfig{}) }

// muxOverhead returns (framing overhead sent, payload sent) of one
// endpoint of a session.
func muxOverhead(st transport.SessionStats) (overhead, payload int64) {
	return st.OverheadBytesSent, st.Data.BytesSent
}

// ---- daemon ---------------------------------------------------------

// newDaemon builds the daemon_mix server: two slots, the named tenants
// at equal weight, serving the TPC-H catalog over db.
func newDaemon(db *tpchDB, slots int, tenants ...string) (*daemonT, error) {
	qs := map[string]daemon.Quota{}
	for _, t := range tenants {
		qs[t] = daemon.Quota{Weight: 1}
	}
	return daemon.New(daemon.Config{Catalog: daemon.TPCHCatalog(db), Ring: ring, Slots: slots, Tenants: qs})
}

func dialDaemon(addr, tenant string, db *tpchDB) (*daemonClient, error) {
	return daemon.Dial(addr, tenant, daemon.TPCHCatalog(db), daemon.ClientConfig{Ring: ring})
}

// shutdownDaemon drains d, giving running queries 30 s to finish.
func shutdownDaemon(d *daemonT) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.Shutdown(ctx)
}

func daemonRun(c *daemonClient, query string) (*relationT, error) {
	return c.Run(context.Background(), daemon.RunSpec{Name: query})
}

// ---- environment the program reads from process globals -------------

func programDefaults() (workers, chunkSize int, obsEnabled bool) {
	return parallel.Workers(), relation.DefaultChunkSize(), obs.Enabled()
}

// ---- kernel probe entry points --------------------------------------

var (
	otNewSender   = ot.NewSender
	otNewReceiver = ot.NewReceiver

	gcNewBuilder   = gc.NewBuilder
	gcGarbleAhead  = gc.GarbleAhead
	gcRunGarbler   = gc.RunGarbler
	gcRunEvaluator = gc.RunEvaluator

	psiRunSender         = psi.RunSender
	psiRunReceiver       = psi.RunReceiver
	psiRunSharedSender   = psi.RunSharedPayloadSender
	psiRunSharedReceiver = psi.RunSharedPayloadReceiver

	cuckooBuild = cuckoo.Build

	oepRunProgrammer = oep.RunProgrammer
	oepRunHelper     = oep.RunHelper

	permnetNewExtended = permnet.NewExtended

	prfHashBlocks = prf.HashBlocks

	bitutilNewMatrix = bitutil.NewMatrix
)

// seedPRG returns a PRG that depends only on n, so probe inputs repeat.
func seedPRG(n uint64) *prf.PRG {
	var s prf.Seed
	for i := 0; i < 8; i++ {
		s[i] = byte(n >> (8 * i))
	}
	s[8] = 0xbe
	return prf.NewPRG(s)
}
