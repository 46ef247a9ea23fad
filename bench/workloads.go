package main

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// config is one run of one workload. The last three fields exist for
// bench_test.go, which must stay cheap; the command line leaves them 0.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string

	scale    float64 // overrides the workload's scale
	maxOps   int     // caps the timed operations
	probeCap int     // caps the kernel probes' n
}

// workloadDef describes one workload; Why is what BENCHMARK.json and
// the README repeat.
type workloadDef struct {
	Name  string
	Why   string
	Scale float64
	run   func(r *run, w workloadDef) error

	query string // single-query workloads
	tcp   bool   // loopback TCP through mpc.NewSession, not the in-memory pair
	pre   bool   // core.PrecomputeOpts before every query
}

var workloads = []workloadDef{
	{Name: "q3_large", Scale: 0.12, query: "Q3", run: runSingle,
		Why: "Q3 at 0.12 MB on the in-memory pipe: reduce-phase kernels (OT extension, garbling, PSI, OEP) are 70% of wall and 95% of bytes, and the cold planner bill is largest"},
	{Name: "q10_small", Scale: 0.02, query: "Q10", tcp: true, run: runSingle,
		Why: "Q10 at 0.02 MB over loopback TCP through one mux session: base OTs, stream open and framing dominate, so fixed costs show here and kernel work should not"},
	{Name: "q18_pre", Scale: 0.06, query: "Q18", pre: true, run: runSingle,
		Why: "Q18 at 0.06 MB with PrecomputeOpts before each query: all three Yannakakis phases, pooled random OTs and pre-garbled circuits instead of the direct paths"},
	{Name: "daemon_mix", Scale: 0.02, run: runDaemonMix,
		Why: "two equal tenants keep four Q10/Q10/Q3 queries outstanding against two secyand slots over TCP: queueing, fair scheduling, the precompute farm and the mux are on the path"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runResult is what one run of one workload produced.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	ScaleMB   float64                `json:"scale_mb"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailFrac  float64                `json:"fail_frac"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Extras    map[string]metricValue `json:"reported_only,omitempty"`
	Timings   map[string]summary     `json:"timings"`
	Counts    map[string]float64     `json:"counts,omitempty"`
}

// run is the state of one workload run.
type run struct {
	cfg     config
	metrics *metricSet // end-to-end when untraced, per-layer when traced
	extras  *metricSet // reportedOnly, untraced run
	tr      *tracer    // nil when untraced
	root    int        // the workload span
	timings map[string][]float64
	counts  map[string]float64
	// deadline closes the measuring window of cfg.seconds: the timed
	// loop of an untraced run; the layer probes and then the loop of a
	// traced one, so that both kinds of run take as long.
	deadline time.Time

	mu        sync.Mutex
	attempted int
	failures  []string
}

// runWorkload runs cfg.workload once and returns its result; the error
// is for set-up failures, wrong answers are counted in the result.
func runWorkload(cfg config) (*runResult, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.scale > 0 {
		w.Scale = cfg.scale
	}
	r := &run{cfg: cfg, timings: map[string][]float64{}, counts: map[string]float64{}, extras: newMetricSet(reportedOnly)}
	if cfg.trace {
		r.metrics = newMetricSet(perLayer)
		r.tr = &tracer{}
		r.root = r.tr.add(span{Kind: "workload", Layer: "bench", Name: w.Name}, processStart, processStart)
	} else {
		r.metrics = newMetricSet(endToEnd)
	}
	if err := w.run(r, w); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	r.tr.setEnd(r.root, time.Now())
	res := &runResult{
		Workload: w.Name, Seed: cfg.seed, Traced: cfg.trace, ScaleMB: w.Scale, Seconds: cfg.seconds,
		Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: len(r.failures),
		FailFrac: float64(len(r.failures)) / float64(max(r.attempted, 1)), Failures: r.failures,
		Metrics: r.metrics.export(), Timings: map[string]summary{}, Counts: r.counts,
	}
	if !cfg.trace {
		res.Extras = r.extras.export()
	}
	for name, samples := range r.timings {
		res.Timings[name] = summarize(samples)
	}
	if cfg.trace {
		if err := writeTrace(cfg.outDir, w.Name, r.tr.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// check is the correctness gate: one attempted operation, failed when it
// returned an error or rows that differ from the plaintext oracle's.
func (r *run) check(what string, got *relationT, want []string, err error) {
	if err == nil {
		err = diffRows(rowsOf(got), want)
	}
	r.record(what, err)
}

// record counts one attempted operation, failed when err is set.
func (r *run) record(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failures = append(r.failures, what+": "+err.Error())
	}
}

func (r *run) startClock() {
	r.deadline = time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
}

// timeFor reports whether an operation expected to take d should still
// start: one that would end more than half of d late should not, which
// keeps the window at cfg.seconds give or take half an operation.
func (r *run) timeFor(d time.Duration) bool { return time.Now().Add(d / 2).Before(r.deadline) }

func (r *run) sample(name string, v float64) { r.timings[name] = append(r.timings[name], v) }

// reportEndToEnd sets the untraced run's metrics from the query_s and
// online_s samples (and offline_s, where the workload precomputes), the
// meter's totals over the timed loop and the loop's length.
func (r *run) reportEndToEnd(setupS, firstS, wireBytes float64, tot loopTotals, loopS float64) {
	n := float64(len(r.timings["query_s"]))
	r.sample("first_query_s", firstS)
	r.metrics.set("setup_s", setupS)
	r.metrics.set("query_s", median(r.timings["query_s"]))
	r.metrics.set("online_s", median(r.timings["online_s"]))
	r.metrics.set("wire_bytes", wireBytes)
	r.metrics.set("alloc_bytes", tot.alloc/n)
	r.metrics.set("peak_heap_bytes", tot.peakHeap)
	r.metrics.set("cpu_s", tot.cpu/n)
	r.extras.set("lat_p80_s", percentile(r.timings["query_s"], 0.80))
	r.extras.set("qps", n/loopS)
	r.extras.set("first_query_s", firstS)
	r.extras.set("peak_rss_bytes", peakRSSBytes())
	if off := r.timings["offline_s"]; len(off) > 0 {
		r.extras.set("offline_s", median(off))
	}
}

// rowsOf renders a result as sorted "values|annotation" strings, so two
// results compare row for row whatever order they arrived in.
func rowsOf(rel *relationT) []string {
	if rel == nil {
		return nil
	}
	rows := make([]string, rel.Len())
	for i := range rel.Tuples {
		rows[i] = fmt.Sprint(rel.Tuples[i], "|", rel.Annot[i])
	}
	sort.Strings(rows)
	return rows
}

func diffRows(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %d is %s, oracle has %s", i, got[i], want[i])
		}
	}
	return nil
}

// benchDB generates the TPC-H data for (scale, seed) and then fixes
// lineitem at the generator's expected 4 rows per order, dropping the
// tail or repeating the head. The protocol's cost depends on the public
// relation sizes only; the generator draws 1–7 lineitems per order, so
// without this a seed would change the amount of work by several per
// cent and no two seeds could be compared.
func benchDB(scale float64, seed int64) *tpchDB {
	db := generateDB(scale, seed)
	src := db.Lineitem
	fixed := newRelationLike(src)
	for i := 0; i < 4*db.Orders.Len(); i++ {
		fixed.Append(src.Tuples[i%src.Len()], src.Annot[i%src.Len()])
	}
	db.Lineitem = fixed
	return db
}

// maxInputN is the workload's largest input cardinality.
func maxInputN(shapes ...*queryShape) int {
	n := 1
	for _, q := range shapes {
		for _, in := range q.Inputs {
			n = max(n, in.N)
		}
	}
	return n
}

// ---- the three single-query workloads --------------------------------

// endpoints is where a single-query workload gets a fresh party pair
// for each query.
type endpoints struct {
	sa, sb *session // nil on the in-memory pair
}

func connect(tcp bool) (*endpoints, error) {
	if !tcp {
		return &endpoints{}, nil
	}
	ca, cb, err := loopbackPair()
	if err != nil {
		return nil, err
	}
	return &endpoints{sa: newSession(alice, ca), sb: newSession(bob, cb)}, nil
}

// loopbackPair returns the two ends of one TCP connection on 127.0.0.1.
func loopbackPair() (conn, conn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		nc  net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		nc, err := ln.Accept()
		ch <- accepted{nc, err}
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	acc := <-ch
	if acc.err != nil {
		dialed.Close()
		return nil, nil, acc.err
	}
	return wrapNetConn(dialed), wrapNetConn(acc.nc), nil
}

func (e *endpoints) parties() (*party, *party, error) {
	if e.sa == nil {
		a, b := newPair()
		return a, b, nil
	}
	a, err := nextParty(e.sa)
	if err != nil {
		return nil, nil, err
	}
	b, err := nextParty(e.sb)
	if err != nil {
		a.Conn.Close()
		return nil, nil, err
	}
	return a, b, nil
}

func (e *endpoints) close() {
	if e.sa != nil {
		e.sa.Close()
		e.sb.Close()
	}
}

// opResult is one operation of a single-query workload: the query, with
// its precompute pass when the workload has one.
type opResult struct {
	start, mid, end time.Time // mid separates offline from online
	wire, offWire   int64
	rel             *relationT
	a, b            stepCollector
}

func (o *opResult) wall() float64    { return o.end.Sub(o.start).Seconds() }
func (o *opResult) offline() float64 { return o.mid.Sub(o.start).Seconds() }
func (o *opResult) online() float64  { return o.end.Sub(o.mid).Seconds() }

// runOp executes one operation on a fresh party pair (fresh OT state, so
// the base OTs are inside it, as Session.Query pays them).
func runOp(e *endpoints, w workloadDef, spec querySpec, shape *queryShape, db *tpchDB, observe bool) (*opResult, error) {
	a, b, err := e.parties()
	if err != nil {
		return nil, err
	}
	defer a.Conn.Close()
	defer b.Conn.Close()
	o := &opResult{}
	if observe {
		a.Observer, b.Observer = o.a.observe, o.b.observe
	}
	o.start = time.Now()
	o.mid = o.start
	if w.pre {
		if _, err := run2PC(a, b, func(p *party) (struct{}, error) { return struct{}{}, precompute(p, shape) }); err != nil {
			return nil, fmt.Errorf("precompute: %w", err)
		}
		o.mid = time.Now()
		o.offWire = a.Conn.Stats().TotalBytes()
	}
	o.rel, err = run2PC(a, b, func(p *party) (*relationT, error) { return secureQuery(spec, p, db) })
	o.end = time.Now()
	o.wire = a.Conn.Stats().TotalBytes()
	return o, err
}

// inputs is what every workload starts from: the data, and per query
// the oracle's rows and the public shape.
type inputs struct {
	db     *tpchDB
	want   map[string][]string
	shapes []*queryShape
	plan   *queryPlan // of the first query; traced run only
}

// prepare generates the data and runs the oracle for the named queries;
// in the traced run it then times the planner on the first query's shape,
// opens the measuring window and runs the layer probes.
func (r *run) prepare(scale float64, names ...string) (*inputs, error) {
	t0 := time.Now()
	in := &inputs{db: benchDB(scale, r.cfg.seed), want: map[string][]string{}}
	generateS := time.Since(t0).Seconds()
	t0 = time.Now()
	for _, name := range names {
		spec := specs[name]()
		rel, err := plainResult(spec, in.db)
		if err != nil {
			return nil, fmt.Errorf("plain %s: %w", name, err)
		}
		in.want[name] = rowsOf(rel)
	}
	plainS := time.Since(t0).Seconds()
	for _, name := range names {
		shape, err := shapeOf(specs[name](), in.db)
		if err != nil {
			return nil, err
		}
		in.shapes = append(in.shapes, shape)
	}
	if r.cfg.trace {
		r.metrics.set("tpch.generate_s", generateS)
		r.metrics.set("yannakakis.plain_s", plainS)
		var err error
		if in.plan, err = r.probePlanner(in.shapes[0]); err != nil {
			return nil, err
		}
		r.startClock()
		r.probeLayers(maxInputN(in.shapes...))
	}
	return in, nil
}

func runSingle(r *run, w workloadDef) error {
	in, err := r.prepare(w.Scale, w.query)
	if err != nil {
		return err
	}
	spec, db, want, shape, plan := specs[w.query](), in.db, in.want[w.query], in.shapes[0], in.plan

	e, err := connect(w.tcp)
	if err != nil {
		return err
	}
	defer e.close()
	first, err := runOp(e, w, spec, shape, db, false)
	if first != nil {
		r.check("first query", first.rel, want, err)
	}
	if err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	setupS := time.Since(processStart).Seconds()

	// The timed loop: closed, one query at a time, until the time is up.
	// The traced run observes every other query, so the traced and the
	// untraced medians come from the same minutes of the same process.
	var plainOps, tracedOps []*opResult
	meter := startLoopMeter()
	if !r.cfg.trace {
		r.startClock()
	}
	for i := 0; ; i++ {
		observe := r.cfg.trace && i%2 == 1
		o, err := runOp(e, w, spec, shape, db, observe)
		if o != nil {
			r.check(fmt.Sprintf("query %d", i), o.rel, want, err)
		}
		if err != nil {
			// A failed 2PC run has torn its connection down; on TCP
			// that is the session, so stop rather than fail every
			// later query for the same reason.
			break
		}
		if observe {
			tracedOps = append(tracedOps, o)
		} else {
			plainOps = append(plainOps, o)
		}
		enough := len(plainOps) >= 2 && (!r.cfg.trace || len(tracedOps) >= 2)
		if (enough && !r.timeFor(o.end.Sub(o.start))) || (r.cfg.maxOps > 0 && i+1 >= r.cfg.maxOps) {
			break
		}
	}
	tot := meter.Stop()
	if len(plainOps) == 0 {
		return fmt.Errorf("no query completed")
	}

	for _, o := range plainOps {
		r.sample("query_s", o.wall())
		r.sample("online_s", o.online())
		if w.pre {
			r.sample("offline_s", o.offline())
		}
	}
	r.counts["queries"] = float64(len(plainOps))
	last := plainOps[len(plainOps)-1]
	for _, o := range plainOps {
		if o.wire != last.wire {
			r.counts["wire_bytes_varied"] = 1
		}
	}
	if !r.cfg.trace {
		r.reportEndToEnd(setupS, first.wall(), float64(last.wire), tot, tot.wall)
		return nil
	}

	if len(tracedOps) == 0 {
		return fmt.Errorf("no traced query completed")
	}
	for _, o := range tracedOps {
		r.sample("traced_query_s", o.wall())
		q := r.tr.newQuery()
		attrs := map[string]float64{"wire_bytes": float64(o.wire), "offline_wire_bytes": float64(o.offWire)}
		r.tr.addQuerySpans(r.root, q, "alice", spec.Name, o.start, o.end, o.a.steps, attrs)
		r.tr.addQuerySpans(r.root, q, "bob", spec.Name, o.start, o.end, o.b.steps, nil)
	}
	r.executorMetrics(tracedOps, plan, w.pre)
	r.metrics.set("obs.trace_overhead_frac", median(r.timings["traced_query_s"])/median(r.timings["query_s"])-1)
	if e.sa != nil {
		// The workload's own session, not the probe's.
		overhead, payload := muxOverhead(e.sa.Stats())
		r.metrics.set("transport.mux_overhead_frac", float64(overhead)/float64(payload))
	}
	return nil
}

// executorMetrics folds Alice's observer records of the traced queries
// into the per-phase medians, the closure number and the plan's
// estimate-to-measurement ratio.
func (r *run) executorMetrics(ops []*opResult, plan *queryPlan, pre bool) {
	phases := []string{"offline", "setup", "input", "reduce", "aggregate", "semijoin", "join", "reveal"}
	secs, bytes := map[string][]float64{}, map[string][]float64{}
	var rounds []float64
	for _, o := range ops {
		s, b, rd := map[string]float64{}, map[string]float64{}, 0.0
		for _, st := range o.a.steps {
			s[st.st.Phase] += st.st.Elapsed.Seconds()
			b[st.st.Phase] += float64(st.st.Bytes)
			rd += float64(st.st.Rounds)
		}
		for _, ph := range phases {
			secs[ph] = append(secs[ph], s[ph])
			bytes[ph] = append(bytes[ph], b[ph])
		}
		rounds = append(rounds, rd)
	}
	for _, ph := range phases {
		r.metrics.set("core.phase."+ph+"_s", median(secs[ph]))
		r.metrics.set("core.phase."+ph+"_bytes", median(bytes[ph]))
	}
	r.metrics.set("core.rounds", median(rounds))
	r.metrics.set("core.attributed_frac", attributedFrac(r.tr.spans))

	last := ops[len(ops)-1]
	est := float64(plan.EstBytes)
	if pre {
		est = float64(plan.EstOfflineBytes + plan.EstOnlineBytes)
		var off, on []float64
		for _, o := range ops {
			off, on = append(off, o.offline()), append(on, o.online())
		}
		r.metrics.set("core.pre.offline_s", median(off))
		r.metrics.set("core.pre.online_frac", median(on)/(median(off)+median(on)))
		r.metrics.set("core.pre.offline_bytes_frac", float64(last.offWire)/float64(last.wire))
	}
	r.metrics.set("core.est_bytes_ratio", est/float64(last.wire))
}

// ---- daemon_mix ------------------------------------------------------

func completedOf(s daemonSnap) (n int64) {
	for _, t := range s.Tenants {
		n += t.Completed + t.Failed
	}
	return n
}

func tenantOf(s daemonSnap, name string) daemonTenant {
	for _, t := range s.Tenants {
		if t.Name == name {
			return t
		}
	}
	return daemonTenant{}
}

// daemonCycle is what each tenant keeps issuing.
var daemonCycle = []string{"Q10", "Q10", "Q3"}

const (
	daemonSlots       = 2
	daemonOutstanding = 2 // Client.Run calls each tenant keeps in flight
)

var daemonTenants = []string{"tenant1", "tenant2"}

func runDaemonMix(r *run, w workloadDef) error {
	in, err := r.prepare(w.Scale, "Q10", "Q3")
	if err != nil {
		return err
	}
	db, want := in.db, in.want

	d, err := newDaemon(db, daemonSlots, daemonTenants...)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- d.Serve(ln) }()
	var clients []*daemonClient
	stopped := false
	// stop drains the daemon with its clients still connected, waits for
	// Serve to return and closes the clients.
	stop := func() float64 {
		if stopped {
			return 0
		}
		stopped = true
		t := time.Now()
		shutdownDaemon(d)
		<-served
		shutdownS := time.Since(t).Seconds()
		for _, c := range clients {
			c.Close()
		}
		return shutdownS
	}
	defer stop()

	var dialS []float64
	for _, tenant := range daemonTenants {
		t := time.Now()
		c, err := dialDaemon(ln.Addr().String(), tenant, db)
		if err != nil {
			return fmt.Errorf("dial as %s: %w", tenant, err)
		}
		r.tr.add(span{Parent: r.root, Kind: "call", Layer: "daemon", Name: "Dial/" + tenant}, t, time.Now())
		dialS = append(dialS, time.Since(t).Seconds())
		clients = append(clients, c)
	}

	t := time.Now()
	rel, err := daemonRun(clients[0], daemonCycle[0])
	firstS := time.Since(t).Seconds()
	r.check("first query", rel, want[daemonCycle[0]], err)
	setupS := time.Since(processStart).Seconds()

	// The timed loop: closed, daemonOutstanding calls in flight per
	// tenant, each tenant walking the cycle, until the time is up.
	before := d.Snapshot()
	meter := startLoopMeter()
	if !r.cfg.trace {
		r.startClock()
	}
	var mu sync.Mutex
	var lat []float64
	var lastDone time.Time
	var wg sync.WaitGroup
	for ti, c := range clients {
		var next atomic.Int64
		for k := 0; k < daemonOutstanding; k++ {
			wg.Add(1)
			go func(ti int, c *daemonClient, next *atomic.Int64) {
				defer wg.Done()
				var last time.Duration
				for {
					i := int(next.Add(1) - 1)
					if (i >= 2 && !r.timeFor(last)) || (r.cfg.maxOps > 0 && i >= r.cfg.maxOps) {
						return
					}
					name := daemonCycle[i%len(daemonCycle)]
					t := time.Now()
					rel, err := daemonRun(c, name)
					done := time.Now()
					r.check(fmt.Sprintf("%s query %d (%s)", daemonTenants[ti], i, name), rel, want[name], err)
					r.tr.add(span{Parent: r.root, Query: r.tr.newQuery(), Kind: "call", Layer: "daemon",
						Name: "Client.Run/" + daemonTenants[ti] + "/" + name}, t, done)
					last = done.Sub(t)
					mu.Lock()
					lat = append(lat, last.Seconds())
					if done.After(lastDone) {
						lastDone = done
					}
					mu.Unlock()
				}
			}(ti, c, &next)
		}
	}
	wg.Wait()
	tot := meter.Stop()
	// A client returns a moment before the daemon books the completion.
	after := d.Snapshot()
	for wait := time.Now().Add(2 * time.Second); completedOf(after)-completedOf(before) < int64(len(lat)) && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
		after = d.Snapshot()
	}
	r.timings["query_s"] = lat
	r.counts["queries"] = float64(len(lat))

	var completed, measured, charged, rejected, waitMS float64
	perTenant := make([]float64, len(daemonTenants))
	for i, name := range daemonTenants {
		a, b := tenantOf(after, name), tenantOf(before, name)
		perTenant[i] = float64(a.Completed - b.Completed)
		completed += perTenant[i]
		measured += float64(a.MeasuredBytes - b.MeasuredBytes)
		charged += float64(a.EstBytesCharged - b.EstBytesCharged)
		rejected += float64(a.RejectedOverload + a.RejectedQuota)
		waitMS += a.AvgQueueWaitMS / float64(len(daemonTenants))
	}
	if completed == 0 {
		return fmt.Errorf("no query completed")
	}

	if !r.cfg.trace {
		r.timings["online_s"] = lat
		r.reportEndToEnd(setupS, firstS, measured/completed, tot, lastDone.Sub(meter.start).Seconds())
		return nil
	}

	var builds float64
	for _, sh := range after.Farm.Shapes {
		builds += float64(sh.Builds)
	}
	r.tr.add(span{Parent: r.root, Kind: "call", Layer: "daemon", Name: "Snapshot delta", Attrs: map[string]float64{
		"completed": completed, "measured_bytes": measured, "est_bytes_charged": charged,
		"farm_hits_offline":  float64(after.Farm.HitsOffline - before.Farm.HitsOffline),
		"farm_hits_circuits": float64(after.Farm.HitsCircuits - before.Farm.HitsCircuits),
		"farm_misses":        float64(after.Farm.Misses - before.Farm.Misses),
	}}, meter.start, lastDone)
	r.metrics.set("daemon.queue_wait_ms", waitMS)
	r.metrics.set("daemon.farm_hit_rate", after.Farm.HitRate)
	r.metrics.set("daemon.farm_hits_offline", float64(after.Farm.HitsOffline))
	r.metrics.set("daemon.farm_hits_circuits", float64(after.Farm.HitsCircuits))
	r.metrics.set("daemon.farm_misses", float64(after.Farm.Misses))
	r.metrics.set("daemon.farm_builds", builds)
	r.metrics.set("daemon.measured_bytes_per_query", measured/completed)
	r.metrics.set("daemon.est_over_measured_bytes", charged/measured)
	r.metrics.set("core.est_bytes_ratio", charged/measured)
	if perTenant[1] > 0 {
		r.metrics.set("daemon.tenant_share_ratio", perTenant[0]/perTenant[1])
	}
	r.metrics.set("daemon.rejected", rejected)
	r.metrics.set("daemon.dial_s", median(dialS))
	r.metrics.set("daemon.shutdown_s", stop())
	return nil
}
