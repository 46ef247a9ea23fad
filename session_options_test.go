package secyan

import (
	"context"
	"errors"
	"testing"
	"time"

	"secyan/internal/obs"
	"secyan/internal/relation"
)

// TestQueryUnifiedAPI pins the two shapes of the one entry point: a
// revealing Query fills Result.Relation and Result.Trace, and
// WithSharedResult fills Result.Shared instead.
func TestQueryUnifiedAPI(t *testing.T) {
	q, rels := sessionExampleQuery(11, 10, 18)

	run := func(opts ...Option) *Result {
		alice, bob := OpenLocal()
		defer alice.Close()
		defer bob.Close()
		res, _, err := both(alice, bob, func(s *Session) (*Result, error) {
			return s.Query(context.Background(), viewFor(q, rels, s.role), opts...)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	viaQuery := run()
	if viaQuery.Relation == nil || viaQuery.Shared != nil {
		t.Fatalf("Query (revealing): Relation=%v Shared=%v, want relation only", viaQuery.Relation, viaQuery.Shared)
	}
	if viaQuery.Trace == nil || len(viaQuery.Trace.Steps) == 0 {
		t.Fatal("Query: missing trace")
	}

	viaShared := run(WithSharedResult())
	if viaShared.Shared == nil || viaShared.Relation != nil {
		t.Fatalf("Query(WithSharedResult): Shared=%v Relation=%v, want shared only", viaShared.Shared, viaShared.Relation)
	}
}

// TestOptionPrecedence pins the one rule of the options model — options
// given at Open are defaults, the same options given per call override
// them — over {backend, chunk size, tenant, deadline}, and that Explain,
// Precompute and Query of one call all see the same resolved values:
// the plan's ChunkSize and step backends, the offline trace's bytes, the
// online trace's step backends, and the flight record's chunk_size and
// tenant.
func TestOptionPrecedence(t *testing.T) {
	q, rels := sessionExampleQuery(13, 8, 14)

	lg := obs.Events()
	lg.Reset()
	lg.Enable()
	SetFlightCapacity(64)
	defer func() {
		lg.Disable()
		lg.Reset()
		obs.Disable()
		obs.Flight().Reset()
	}()

	session := []Option{WithBackend(BackendGC), WithChunkSize(128), WithTenant("session-tenant"), WithStreamDeadline(time.Minute)}
	for _, tc := range []struct {
		name       string
		open, call []Option
		// The resolved values every layer must see.
		backend BackendID
		chunk   int
		tenant  string
		expired bool
	}{
		{name: "built-in defaults", chunk: relation.DefaultChunkSize()},
		{name: "session default", open: session,
			backend: BackendGC, chunk: 128, tenant: "session-tenant"},
		{name: "per-call override", open: session,
			call:    []Option{WithBackend(BackendPSIOEP), WithChunkSize(16), WithTenant("call-tenant")},
			backend: BackendPSIOEP, chunk: 16, tenant: "call-tenant"},
		{name: "session deadline", open: []Option{WithStreamDeadline(time.Nanosecond)},
			expired: true},
		{name: "per-call deadline tightens", open: session,
			call:    []Option{WithStreamDeadline(time.Nanosecond)},
			expired: true},
		{name: "per-call deadline relaxes", open: []Option{WithStreamDeadline(time.Nanosecond)},
			call:  []Option{WithStreamDeadline(time.Minute)},
			chunk: relation.DefaultChunkSize()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alice, bob := OpenLocal(tc.open...)
			defer alice.Close()
			defer bob.Close()
			ctx := context.Background()

			pre, _, preErr := both(alice, bob, func(s *Session) (*Trace, error) {
				return s.Precompute(ctx, viewFor(q, nil, Role(255)), tc.call...)
			})
			res, _, runErr := both(alice, bob, func(s *Session) (*Result, error) {
				return s.Query(ctx, viewFor(q, rels, s.role), tc.call...)
			})
			if tc.expired {
				if !errors.Is(preErr, context.DeadlineExceeded) || !errors.Is(runErr, context.DeadlineExceeded) {
					t.Fatalf("resolved 1ns deadline: Precompute %v, Query %v, want DeadlineExceeded from both", preErr, runErr)
				}
				return
			}
			if preErr != nil || runErr != nil {
				t.Fatalf("Precompute %v, Query %v", preErr, runErr)
			}

			// Explain: the resolved chunk size and backend, in the plan.
			plan, err := alice.Explain(viewFor(q, rels, Alice), tc.call...)
			if err != nil {
				t.Fatal(err)
			}
			if plan.ChunkSize != tc.chunk {
				t.Errorf("Explain plan ChunkSize = %d, want %d", plan.ChunkSize, tc.chunk)
			}
			secure := map[BackendID]bool{}
			gcLost := 0 // steps gc bid for but did not serve
			for _, st := range plan.Steps {
				if st.Backend != "" && st.Backend != "local" {
					secure[st.Backend] = true
				}
				for _, alt := range st.Alternatives {
					if alt.Backend == BackendGC && st.Backend != BackendGC {
						gcLost++
					}
				}
			}
			switch tc.backend {
			case BackendGC:
				// gc bids for semijoins only; aggregations keep psi-oep.
				if !secure[BackendGC] || gcLost > 0 {
					t.Errorf("forced gc not honored: plan step backends %v, %d steps lost by gc", secure, gcLost)
				}
			case BackendPSIOEP:
				if secure[BackendGC] {
					t.Errorf("forced psi-oep did not displace gc: plan step backends %v", secure)
				}
			}

			// Precompute staged that plan: its offline estimate, exactly.
			// (The offline phase has no tuple plane, so the chunk size has
			// nothing to show here.)
			var offEst int64
			for _, st := range pre.Steps {
				offEst += st.EstBytes
			}
			if offEst != plan.EstOfflineBytes {
				t.Errorf("Precompute staged %d estimated offline bytes, Explain plans %d", offEst, plan.EstOfflineBytes)
			}
			var preTenant string
			for _, e := range RecentEvents(0) {
				if e.SID != alice.SID() || e.Kind != "query.admit" {
					continue
				}
				for _, a := range e.Attrs {
					if a.Key == "kind" && a.Value.String() == "precompute" {
						preTenant = e.Tenant
					}
				}
			}
			if preTenant != tc.tenant {
				t.Errorf("Precompute admitted under tenant %q, want %q", preTenant, tc.tenant)
			}

			// Query ran that plan: the same backend step by step, the staged
			// material consumed, and the flight record carrying the chunk
			// size and tenant.
			if len(res.Trace.Steps) != len(plan.Steps) {
				t.Fatalf("Query ran %d steps, Explain plans %d", len(res.Trace.Steps), len(plan.Steps))
			}
			for i, st := range res.Trace.Steps {
				if st.Backend != string(plan.Steps[i].Backend) {
					t.Errorf("step %d (%s): Query ran backend %q, Explain plans %q", i, st.Op, st.Backend, plan.Steps[i].Backend)
				}
			}
			if got := res.Trace.TotalBytes(); got != plan.EstOnlineBytes {
				t.Errorf("Query moved %d bytes online, the plan's online estimate is %d: Precompute staged a different plan", got, plan.EstOnlineBytes)
			}
			var recs int
			for _, r := range FlightRecords() {
				if r.SID != alice.SID() {
					continue
				}
				recs++
				if r.ChunkSize != tc.chunk || r.Tenant != tc.tenant {
					t.Errorf("flight record chunk_size=%d tenant=%q, want %d and %q", r.ChunkSize, r.Tenant, tc.chunk, tc.tenant)
				}
			}
			if recs != 1 {
				t.Errorf("%d flight records for Alice's session, want 1", recs)
			}
		})
	}
}
