package secyan

import (
	"context"
	"testing"

	"secyan/internal/obs"
)

// TestQueryUnifiedAPI pins the two shapes of the one entry point: a
// revealing Query fills Result.Relation and Result.Trace, and
// WithSharedResult fills Result.Shared instead.
func TestQueryUnifiedAPI(t *testing.T) {
	q := sessionExampleQuery(11, 10, 18)

	run := func(opts ...Option) *Result {
		alice, bob := OpenLocal()
		defer alice.Close()
		defer bob.Close()
		res, _, err := both(alice, bob, func(s *Session) (*Result, error) {
			return s.Query(context.Background(), q.For(s.role), opts...)
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
// them — over {assumed output size, tenant}, and that Explain,
// Precompute and Query of one call all see the same resolved values: the
// plan's EstOut, the offline trace's bytes, the online trace's steps and
// estimates, and the flight record's plan digest and tenant.
func TestOptionPrecedence(t *testing.T) {
	q := sessionExampleQuery(13, 8, 14)

	lg := obs.Events()
	lg.Reset()
	SetFlightCapacity(64)
	defer func() {
		lg.Reset()
		obs.Disable()
		obs.Flight().Reset()
	}()

	session := []Option{WithEstOut(7), WithTenant("session-tenant")}
	for _, tc := range []struct {
		name       string
		open, call []Option
		// The resolved values every layer must see.
		estOut int
		tenant string
	}{
		{name: "built-in defaults"},
		{name: "session default", open: session,
			estOut: 7, tenant: "session-tenant"},
		{name: "per-call override", open: session,
			call:   []Option{WithEstOut(3), WithTenant("call-tenant")},
			estOut: 3, tenant: "call-tenant"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alice, bob := OpenLocal(tc.open...)
			defer alice.Close()
			defer bob.Close()
			ctx := context.Background()

			pre, _, preErr := both(alice, bob, func(s *Session) (*Trace, error) {
				return s.Precompute(ctx, q.Shape(), tc.call...)
			})
			res, _, runErr := both(alice, bob, func(s *Session) (*Result, error) {
				return s.Query(ctx, q.For(s.role), tc.call...)
			})
			if preErr != nil || runErr != nil {
				t.Fatalf("Precompute %v, Query %v", preErr, runErr)
			}

			// Explain: the resolved output size, in the plan.
			plan, err := alice.Explain(q.For(Alice), tc.call...)
			if err != nil {
				t.Fatal(err)
			}
			if plan.EstOut != tc.estOut {
				t.Errorf("plan assumes OUT = %d, want %d", plan.EstOut, tc.estOut)
			}

			// Precompute staged that plan: its offline estimate, exactly.
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

			// Query ran that plan: the same steps and estimates, the staged
			// material consumed, and the flight record carrying the plan's
			// digest and the tenant.
			if len(res.Trace.Steps) != len(plan.Steps) {
				t.Fatalf("Query ran %d steps, Explain plans %d", len(res.Trace.Steps), len(plan.Steps))
			}
			for i, st := range res.Trace.Steps {
				if ps := plan.Steps[i]; st.Op != ps.Op || st.Node != ps.Node || st.EstBytes != ps.EstBytes {
					t.Errorf("step %d: Query ran %s[%s] estimated at %d B, Explain plans %s[%s] at %d B",
						i, st.Op, st.Node, st.EstBytes, ps.Op, ps.Node, ps.EstBytes)
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
				if r.PlanDigest != plan.DigestString() || r.Tenant != tc.tenant {
					t.Errorf("flight record plan_digest=%s tenant=%q, want %s and %q", r.PlanDigest, r.Tenant, plan.DigestString(), tc.tenant)
				}
			}
			if recs != 1 {
				t.Errorf("%d flight records for Alice's session, want 1", recs)
			}
		})
	}
}
