package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/relation"
)

// testQuery builds a small three-relation join-aggregate (the DESIGN.md
// running example) with deterministic data. Varying sizes across tests
// varies the plan digest, keeping each test's farm shape history
// isolated despite the process-global flight recorder.
func testQuery(seed int64, nPersons, nRecords int) (*core.Query, []*relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	r1 := relation.New(relation.MustSchema("person", "coinsurance"))
	for i := 0; i < nPersons; i++ {
		r1.Append([]uint64{uint64(i), uint64(rng.Intn(100))}, uint64(rng.Intn(100)))
	}
	r2 := relation.New(relation.MustSchema("person", "disease"))
	for i := 0; i < nRecords; i++ {
		r2.Append([]uint64{uint64(rng.Intn(nPersons + 3)), uint64(rng.Intn(5))}, uint64(rng.Intn(1000)))
	}
	r3 := relation.New(relation.MustSchema("disease", "class"))
	for d := 0; d < 4; d++ {
		r3.Append([]uint64{uint64(d), uint64(d % 2)}, 1)
	}
	q := &core.Query{
		Inputs: []core.Input{
			{Name: "insurance", Owner: mpc.Alice, Schema: r1.Schema, N: r1.Len()},
			{Name: "records", Owner: mpc.Bob, Schema: r2.Schema, N: r2.Len()},
			{Name: "classes", Owner: mpc.Alice, Schema: r3.Schema, N: r3.Len()},
		},
		Output: []relation.Attr{"class"},
	}
	return q, []*relation.Relation{r1, r2, r3}
}

// viewFor attaches only the relations the role owns.
func viewFor(q *core.Query, rels []*relation.Relation, role mpc.Role) *core.Query {
	cq := &core.Query{Output: q.Output}
	for i, in := range q.Inputs {
		ci := in
		if in.Owner == role {
			ci.Rel = rels[i]
		} else {
			ci.Rel = nil
		}
		cq.Inputs = append(cq.Inputs, ci)
	}
	return cq
}

// wantByClass computes the plaintext join-aggregate (sum of annotation
// products grouped by class, zero groups dropped).
func wantByClass(rels []*relation.Relation) map[uint64]uint64 {
	r1, r2, r3 := rels[0], rels[1], rels[2]
	want := map[uint64]uint64{}
	for i, t1 := range r1.Tuples {
		for j, t2 := range r2.Tuples {
			if t2[0] != t1[0] {
				continue
			}
			for k, t3 := range r3.Tuples {
				if t3[0] == t2[1] {
					want[t3[1]] += r1.Annot[i] * r2.Annot[j] * r3.Annot[k]
				}
			}
		}
	}
	for c, v := range want {
		if v == 0 {
			delete(want, c)
		}
	}
	return want
}

func gotByClass(r *relation.Relation) map[uint64]uint64 {
	got := map[uint64]uint64{}
	for i := range r.Tuples {
		got[r.Tuples[i][0]] += r.Annot[i]
	}
	for c, v := range got {
		if v == 0 {
			delete(got, c)
		}
	}
	return got
}

// sideCatalogs builds matching daemon (Bob) and client (Alice) catalogs
// for one synthetic query under the given name.
func sideCatalogs(name string, q *core.Query, rels []*relation.Relation) (daemonCat, clientCat Catalog) {
	return Catalog{name: RunnerForQuery(viewFor(q, rels, mpc.Bob))},
		Catalog{name: RunnerForQuery(viewFor(q, rels, mpc.Alice))}
}

// slowed wraps a runner with a daemon-side pre-run delay, keeping
// queries running long enough for queues to form.
func slowed(r Runner, d time.Duration) Runner {
	return Runner{
		Shape: r.Shape,
		Run: func(ctx context.Context, p *mpc.Party, opts core.Options) (*relation.Relation, error) {
			time.Sleep(d)
			return r.Run(ctx, p, opts)
		},
	}
}

// startDaemon serves cfg on an ephemeral TCP port, with cleanup.
func startDaemon(t *testing.T, cfg Config) (*Daemon, string) {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return d, ln.Addr().String()
}

func dialTenant(t *testing.T, addr, tenant string, cat Catalog) *Client {
	t.Helper()
	c, err := Dial(addr, tenant, cat, ClientConfig{})
	if err != nil {
		t.Fatalf("dial %s as %q: %v", addr, tenant, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// settled polls until the scheduler has booked every admitted query and
// returns that snapshot. A client holds its reply before
// scheduler.complete has run, so a snapshot taken right after the last
// Run returns can be one completion short. Once nothing is queued or
// running the books must balance: admitted = completed + failed +
// rejected (tests that reject before admission cannot use this).
func settled(t *testing.T, d *Daemon) Snapshot {
	t.Helper()
	var snap Snapshot
	waitFor(t, "every admitted query booked", func() bool {
		snap = d.Snapshot()
		return snap.Running == 0 && snap.Queued == 0
	})
	for _, ts := range snap.Tenants {
		if booked := ts.Completed + ts.Failed + ts.RejectedOverload + ts.RejectedQuota; ts.Admitted != booked {
			t.Errorf("tenant %s: admitted %d, booked %d (%+v)", ts.Name, ts.Admitted, booked, ts)
		}
	}
	return snap
}

// TestDaemonTwoTenantsConcurrent runs two tenants' queries concurrently
// over real TCP against one daemon and checks every result against the
// plaintext engine.
func TestDaemonTwoTenantsConcurrent(t *testing.T) {
	q, rels := testQuery(7, 12, 20)
	want := wantByClass(rels)
	dcat, ccat := sideCatalogs("example", q, rels)
	d, addr := startDaemon(t, Config{
		Catalog:      dcat,
		Slots:        2,
		DefaultQuota: &Quota{},
		WarmAfter:    100, // farm out of the picture
	})

	const perTenant = 3
	var wg sync.WaitGroup
	errs := make(chan error, 2*perTenant)
	for _, tenant := range []string{"acme", "globex"} {
		c := dialTenant(t, addr, tenant, ccat)
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string, c *Client) {
				defer wg.Done()
				res, err := c.Run(context.Background(), RunSpec{Name: "example"})
				if err != nil {
					errs <- fmt.Errorf("%s: %w", tenant, err)
					return
				}
				got := gotByClass(res)
				if len(got) != len(want) {
					errs <- fmt.Errorf("%s: got %v, want %v", tenant, got, want)
					return
				}
				for k, v := range want {
					if got[k] != v {
						errs <- fmt.Errorf("%s: class %d: got %d, want %d", tenant, k, got[k], v)
						return
					}
				}
			}(tenant, c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := settled(t, d)
	if snap.Sessions != 2 {
		t.Fatalf("sessions = %d, want 2", snap.Sessions)
	}
	var completed int64
	for _, ts := range snap.Tenants {
		completed += ts.Completed
	}
	if completed != 2*perTenant {
		t.Fatalf("completed = %d, want %d", completed, 2*perTenant)
	}
	for _, tenant := range []string{"acme", "globex"} {
		if got := mQueries.Value(tenant, "completed"); got < perTenant {
			t.Errorf("mQueries[%s,completed] = %d, want >= %d", tenant, got, perTenant)
		}
	}
}

// TestDaemonFairnessNoStarvation pins the WFQ guarantee: with a single
// execution slot and a heavy tenant's backlog already queued, a
// light-weight... rather, a *high*-weight tenant's late-arriving query
// is dispatched ahead of most of the backlog instead of last (as FIFO
// would).
func TestDaemonFairnessNoStarvation(t *testing.T) {
	q, rels := testQuery(11, 10, 16)
	dcat, ccat := sideCatalogs("example", q, rels)
	for name, r := range dcat {
		dcat[name] = slowed(r, 100*time.Millisecond)
	}
	const heavyJobs = 6
	d, addr := startDaemon(t, Config{
		Catalog:   dcat,
		Slots:     1,
		MaxQueued: heavyJobs + 2,
		Tenants: map[string]Quota{
			"heavy": {Weight: 1},
			"light": {Weight: 16},
		},
		WarmAfter: 100,
	})

	order := make(chan string, heavyJobs+1)
	var wg sync.WaitGroup
	heavy := dialTenant(t, addr, "heavy", ccat)
	for i := 0; i < heavyJobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := heavy.Run(context.Background(), RunSpec{Name: "example"}); err != nil {
				t.Errorf("heavy: %v", err)
				return
			}
			order <- "heavy"
		}()
	}
	// Wait until the backlog has actually formed behind the slot.
	waitFor(t, "heavy backlog", func() bool {
		s := d.Snapshot()
		return s.Running == 1 && s.Queued >= heavyJobs-2
	})
	light := dialTenant(t, addr, "light", ccat)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := light.Run(context.Background(), RunSpec{Name: "example"}); err != nil {
			t.Errorf("light: %v", err)
			return
		}
		order <- "light"
	}()
	wg.Wait()
	close(order)

	var seq []string
	lightPos := -1
	for o := range order {
		if o == "light" {
			lightPos = len(seq)
		}
		seq = append(seq, o)
	}
	if lightPos < 0 {
		t.Fatal("light tenant's query never completed")
	}
	// FIFO would finish it last (position heavyJobs). WFQ must slot it
	// ahead of most of the backlog: at worst behind the job already
	// running and one dispatch race.
	if lightPos > 2 {
		t.Fatalf("light tenant starved: finished %dth of %d (order %v)", lightPos+1, len(seq), seq)
	}
}

// TestDaemonQuotaQueueDepth pins typed quota shedding: a tenant over
// its queued-depth bound gets ErrQuotaExceeded over the control stream
// (the connection survives), the rejection metric moves, and a
// daemon.reject event is recorded.
func TestDaemonQuotaQueueDepth(t *testing.T) {
	q, rels := testQuery(13, 8, 12)
	dcat, ccat := sideCatalogs("example", q, rels)
	for name, r := range dcat {
		dcat[name] = slowed(r, 200*time.Millisecond)
	}
	d, addr := startDaemon(t, Config{
		Catalog:   dcat,
		Slots:     1,
		Tenants:   map[string]Quota{"acme": {MaxQueued: 1}},
		WarmAfter: 100,
	})
	c := dialTenant(t, addr, "acme", ccat)
	rejectedBefore := mQueries.Value("acme", "rejected-quota")

	results := make(chan error, 3)
	var wg sync.WaitGroup
	run := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Run(context.Background(), RunSpec{Name: "example"})
			results <- err
		}()
	}
	run() // occupies the slot
	waitFor(t, "first query running", func() bool { return d.Snapshot().Running == 1 })
	run() // queues (depth 1 = the bound)
	waitFor(t, "second query queued", func() bool { return d.Snapshot().Queued == 1 })
	run() // must shed with ErrQuotaExceeded
	wg.Wait()
	close(results)

	var ok, quota int
	for err := range results {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrQuotaExceeded):
			quota++
			var re *RejectedError
			if !errors.As(err, &re) || re.Code != codeQuota {
				t.Errorf("quota rejection lacks RejectedError{Code: quota}: %v", err)
			}
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if ok != 2 || quota != 1 {
		t.Fatalf("got %d ok / %d quota-shed, want 2 / 1", ok, quota)
	}
	if got := mQueries.Value("acme", "rejected-quota") - rejectedBefore; got != 1 {
		t.Fatalf("rejected-quota metric moved by %d, want 1", got)
	}
	found := false
	for _, e := range obs.Events().Recent(256) {
		if e.Kind == "daemon.reject" && e.Tenant == "acme" {
			found = true
		}
	}
	if !found {
		t.Fatal("no daemon.reject event recorded for tenant acme")
	}
	// The connection survived shedding: the same client runs again.
	if _, err := c.Run(context.Background(), RunSpec{Name: "example"}); err != nil {
		t.Fatalf("run after shed: %v", err)
	}
}

// TestDaemonQuotaBytesBurst pins the bytes/sec quota: a query whose
// estimated communication exceeds the tenant's burst capacity is shed
// immediately with ErrQuotaExceeded.
func TestDaemonQuotaBytesBurst(t *testing.T) {
	q, rels := testQuery(17, 8, 12)
	dcat, ccat := sideCatalogs("example", q, rels)
	_, addr := startDaemon(t, Config{
		Catalog:   dcat,
		Tenants:   map[string]Quota{"tiny": {BytesPerSec: 1, Burst: 1}},
		WarmAfter: 100,
	})
	c := dialTenant(t, addr, "tiny", ccat)
	_, err := c.Run(context.Background(), RunSpec{Name: "example"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("got %v, want ErrQuotaExceeded", err)
	}
}

// TestDaemonOverloaded pins global load shedding: when the daemon-wide
// queue bound is hit, excess queries shed with ErrOverloaded.
func TestDaemonOverloaded(t *testing.T) {
	q, rels := testQuery(19, 8, 12)
	dcat, ccat := sideCatalogs("example", q, rels)
	for name, r := range dcat {
		dcat[name] = slowed(r, 200*time.Millisecond)
	}
	d, addr := startDaemon(t, Config{
		Catalog:      dcat,
		Slots:        1,
		MaxQueued:    1,
		DefaultQuota: &Quota{},
		WarmAfter:    100,
	})
	c := dialTenant(t, addr, "acme", ccat)

	results := make(chan error, 3)
	var wg sync.WaitGroup
	run := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Run(context.Background(), RunSpec{Name: "example"})
			results <- err
		}()
	}
	run()
	waitFor(t, "first query running", func() bool { return d.Snapshot().Running == 1 })
	run()
	waitFor(t, "second query queued", func() bool { return d.Snapshot().Queued == 1 })
	run()
	wg.Wait()
	close(results)

	var ok, overload int
	for err := range results {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			overload++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if ok != 2 || overload != 1 {
		t.Fatalf("got %d ok / %d overload-shed, want 2 / 1", ok, overload)
	}
}

// TestDaemonFarmInventoryHits pins the daemon-local half of the farm: a
// repeated query shape crosses the warm threshold, the background
// builder stages circuit bundles, dispatch attaches them, and the hit
// rate goes positive — visible in /debug/tenants.
func TestDaemonFarmInventoryHits(t *testing.T) {
	q, rels := testQuery(23, 14, 24)
	want := wantByClass(rels)
	dcat, ccat := sideCatalogs("hot", q, rels)
	d, addr := startDaemon(t, Config{
		Catalog:      dcat,
		Slots:        2, // free slots: no waiting, so no cooperative warms
		DefaultQuota: &Quota{},
		WarmAfter:    2,
	})
	c := dialTenant(t, addr, "acme", ccat)

	digest := ""
	runOnce := func() {
		res, err := c.Run(context.Background(), RunSpec{Name: "hot"})
		if err != nil {
			t.Fatal(err)
		}
		got := gotByClass(res)
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("class %d: got %d, want %d", k, got[k], v)
			}
		}
	}
	_, plan, err := shapeDigest(dcat["hot"], d.ring.Bits, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	digest = plan.DigestString()

	runOnce() // seen 1: miss
	runOnce() // seen 2: predicted, build queued; likely still a miss
	waitFor(t, "staged inventory", func() bool { return d.farm.inventoryReady(digest) })
	runOnce() // must attach the staged bundle
	farm := settled(t, d).Farm
	if farm.HitsCircuits < 1 {
		t.Fatalf("staged-circuit hits = %d, want >= 1 (farm %+v)", farm.HitsCircuits, farm)
	}
	if farm.HitRate <= 0 {
		t.Fatalf("farm hit rate = %v, want > 0", farm.HitRate)
	}

	// The same numbers serve over HTTP at /debug/tenants.
	srv := httptest.NewServer(obs.DebugHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Tenants []TenantStatus `json:"tenants"`
		Farm    FarmStatus     `json:"farm"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Farm.HitsCircuits+snap.Farm.HitsOffline < 1 {
		t.Fatalf("/debug/tenants farm hits = %+v, want >= 1", snap.Farm)
	}
	foundTenant := false
	for _, ts := range snap.Tenants {
		if ts.Name == "acme" && ts.Completed >= 3 {
			foundTenant = true
		}
	}
	if !foundTenant {
		t.Fatalf("/debug/tenants lacks tenant acme with >=3 completions: %+v", snap.Tenants)
	}
}

// TestDaemonFarmCooperativeWarm pins the two-party half: when a
// predicted-shape query waits for a slot, daemon and client co-run the
// offline phase on the assigned stream and the dispatch consumes it
// ("hit-offline"), with correct results.
func TestDaemonFarmCooperativeWarm(t *testing.T) {
	q, rels := testQuery(29, 16, 28)
	want := wantByClass(rels)
	dcat, ccat := sideCatalogs("warm", q, rels)
	for name, r := range dcat {
		dcat[name] = slowed(r, 250*time.Millisecond)
	}
	d, addr := startDaemon(t, Config{
		Catalog:      dcat,
		Slots:        1,
		DefaultQuota: &Quota{},
		WarmAfter:    1, // predicted from the first repeat
	})
	c := dialTenant(t, addr, "acme", ccat)

	check := func(res *relation.Relation, err error) error {
		if err != nil {
			return err
		}
		got := gotByClass(res)
		for k, v := range want {
			if got[k] != v {
				return fmt.Errorf("class %d: got %d, want %d", k, got[k], v)
			}
		}
		return nil
	}

	// Occupy the slot, then submit the (already predicted) shape again:
	// it must wait, triggering the cooperative warm.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- check(c.Run(context.Background(), RunSpec{Name: "warm"}))
	}()
	waitFor(t, "first query running", func() bool { return d.Snapshot().Running == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- check(c.Run(context.Background(), RunSpec{Name: "warm"}))
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if hits := d.Snapshot().Farm.HitsOffline; hits < 1 {
		t.Fatalf("cooperative warm hits = %d, want >= 1 (farm %+v)", hits, d.Snapshot().Farm)
	}
}

// TestDaemonGracefulDrain pins shutdown semantics: running queries
// finish, queued queries shed with typed ErrOverloaded over still-open
// control streams, and Shutdown returns cleanly.
func TestDaemonGracefulDrain(t *testing.T) {
	q, rels := testQuery(31, 8, 12)
	dcat, ccat := sideCatalogs("example", q, rels)
	for name, r := range dcat {
		dcat[name] = slowed(r, 200*time.Millisecond)
	}
	d, addr := startDaemon(t, Config{
		Catalog:      dcat,
		Slots:        1,
		DefaultQuota: &Quota{},
		WarmAfter:    100,
	})
	c := dialTenant(t, addr, "acme", ccat)

	results := make(chan error, 2)
	var wg sync.WaitGroup
	run := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Run(context.Background(), RunSpec{Name: "example"})
			results <- err
		}()
	}
	run()
	waitFor(t, "first query running", func() bool { return d.Snapshot().Running == 1 })
	run()
	waitFor(t, "second query queued", func() bool { return d.Snapshot().Queued == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	close(results)
	var ok, shed int
	for err := range results {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Errorf("unexpected drain outcome: %v", err)
		}
	}
	if ok != 1 || shed != 1 {
		t.Fatalf("drain: %d completed / %d shed, want 1 / 1", ok, shed)
	}
}

// TestDaemonRejectsUnknowns pins hello/admission validation: an
// unlisted tenant is rejected at hello (when no default quota admits
// strangers), and a query name missing from the daemon's catalog is
// rejected per-query with the connection intact.
func TestDaemonRejectsUnknowns(t *testing.T) {
	q, rels := testQuery(37, 8, 12)
	dcat, ccat := sideCatalogs("example", q, rels)
	_, addr := startDaemon(t, Config{
		Catalog:   dcat,
		Tenants:   map[string]Quota{"acme": {}},
		WarmAfter: 100,
	})

	if _, err := Dial(addr, "mallory", ccat, ClientConfig{}); err == nil {
		t.Fatal("unknown tenant admitted")
	} else {
		var re *RejectedError
		if !errors.As(err, &re) {
			t.Fatalf("unknown tenant: got %v, want RejectedError", err)
		}
	}

	ghost := Catalog{"example": ccat["example"], "ghost": ccat["example"]}
	c := dialTenant(t, addr, "acme", ghost)
	_, err := c.Run(context.Background(), RunSpec{Name: "ghost"})
	var re *RejectedError
	if !errors.As(err, &re) || re.Code != codeUnknownQuery {
		t.Fatalf("unknown query: got %v, want RejectedError{Code: unknown-query}", err)
	}
	if _, err := c.Run(context.Background(), RunSpec{Name: "example"}); err != nil {
		t.Fatalf("run after unknown-query rejection: %v", err)
	}
}
