// Command secyan runs one of the paper's TPC-H queries under the secure
// Yannakakis protocol, either in-process (both parties in one binary,
// the default) or across two processes over TCP.
//
// In-process demo:
//
//	secyan -query Q3 -scale 0.1
//
// Two processes (both generate the same data from the shared seed, each
// playing its own party):
//
//	secyan -query Q3 -scale 0.1 -role alice -listen :7000
//	secyan -query Q3 -scale 0.1 -role bob   -connect localhost:7000
//
// Alice prints the query results; both print their traffic statistics.
//
// Against a secyand daemon (the client plays Alice; the daemon must
// serve a catalog generated with the same -scale and -seed):
//
//	secyan -query Q3 -scale 0.1 -daemon localhost:9440 -tenant acme
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"secyan/internal/core"
	"secyan/internal/daemon"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/queries"
	"secyan/internal/relation"
	"secyan/internal/share"
	"secyan/internal/tpch"
	"secyan/internal/transport"
)

func main() {
	queryName := flag.String("query", "Q3", "query to run: Q3, Q10, Q18, Q8, Q9")
	scale := flag.Float64("scale", 0.05, "dataset size in MB")
	seed := flag.Int64("seed", 1, "data generation seed (must match between parties)")
	role := flag.String("role", "", "party role for distributed mode: alice or bob (empty = in-process demo)")
	listen := flag.String("listen", "", "listen address (alice side of distributed mode)")
	connect := flag.String("connect", "", "peer address (bob side of distributed mode)")
	q9nations := flag.Int("q9nations", 2, "nations in the Q9 decomposition (paper: 25)")
	maxRows := flag.Int("maxrows", 20, "result rows to print")
	explain := flag.Bool("explain", false, "print the execution plan and cost estimate instead of running")
	analyze := flag.Bool("analyze", false, "run the query and print the per-step trace (plan columns plus measured bytes, messages, rounds, wall time)")
	precompute := flag.Bool("precompute", false, "run the plan-driven offline phase (OT pools, ahead-of-time garbling) first and report the offline/online split; in distributed mode both parties must pass it (the offline phase has its own traffic)")
	heartbeat := flag.Duration("heartbeat", 0, "distributed mode: session heartbeat interval for peer-liveness detection (0 = off); the run fails cleanly if the peer goes silent for 3x this interval")
	deadline := flag.Duration("deadline", 0, "distributed mode: overall session deadline (0 = none)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /debug/step on this address (enables metrics collection)")
	debugLinger := flag.Duration("debug-linger", 0, "keep the debug server (and process) alive this long after the run finishes, so the final metrics can still be scraped")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run to this file (open in chrome://tracing or ui.perfetto.dev)")
	chunk := flag.Int("chunk", 0, "executor chunk size in tuples: bounds per-operator memory without changing a byte on the wire (0 = default 4096, negative = fully materialized); parties may even choose different sizes, transcripts are identical")
	backendName := flag.String("backend", "auto", "secure-join backend for every applicable semijoin/aggregate step: auto (cost-based per step), psi-oep or gc; unlike -chunk this changes the transcript, so both parties must agree")
	logJSON := flag.Bool("log-json", false, "emit the structured observability event log (session/query lifecycle, backend auctions, precompute hits, transport faults) as JSON lines on stderr")
	flightN := flag.Int("flight", 0, "retain the last N completed-query flight records, print them as a table after the run, and serve them at /debug/queries with -debug-addr (0 = off)")
	daemonAddr := flag.String("daemon", "", "run as a client of a secyand daemon at this address (plays alice; -role/-listen/-connect are ignored); the daemon must serve a catalog generated with the same -scale and -seed")
	tenant := flag.String("tenant", "default", "daemon mode: tenant name to run queries as")
	count := flag.Int("count", 1, "daemon mode: run the query this many times sequentially (repeated shapes exercise the daemon's precompute farm)")
	flag.Parse()

	backend, err := core.ParseBackend(*backendName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secyan: %v\n", err)
		os.Exit(2)
	}

	var spec queries.Spec
	switch *queryName {
	case "Q3":
		spec = queries.Q3()
	case "Q10":
		spec = queries.Q10()
	case "Q18":
		spec = queries.Q18()
	case "Q8":
		spec = queries.Q8()
	case "Q9":
		spec = queries.Q9(*q9nations)
	default:
		fmt.Fprintf(os.Stderr, "secyan: unknown query %q\n", *queryName)
		os.Exit(2)
	}

	// The one options value explain, precompute and run all see.
	opts := core.Options{ChunkSize: *chunk, Backend: backend}
	db := tpch.Generate(tpch.Config{ScaleMB: *scale, Seed: *seed})
	fmt.Printf("dataset: %.3g MB (%d tuples total), query %s\n", *scale, db.TotalRows(), spec.Name)
	ring := share.Ring{Bits: 32}

	if *explain {
		if err := printExplain(spec, db, ring, opts); err != nil {
			fmt.Fprintf(os.Stderr, "secyan: explain: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *logJSON {
		obs.Events().SetJSONSink(os.Stderr)
	}
	if *flightN > 0 {
		obs.Flight().SetCapacity(*flightN)
		obs.Enable()
	}
	if *debugAddr != "" {
		addr, _, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secyan: debug server: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("debug server: http://%s/metrics\n", addr)
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		obs.Install(tracer)
	}

	switch {
	case *daemonAddr != "":
		runDaemonClient(spec, db, ring, *backendName, *chunk, *daemonAddr, *tenant, *count, *maxRows, *heartbeat, *deadline)
	case *role == "":
		runInProcess(spec, db, ring, opts, *maxRows, *analyze, *precompute, tracer)
	default:
		runDistributed(spec, db, ring, opts, *role, *listen, *connect, *maxRows, *analyze, *precompute, *heartbeat, *deadline, tracer)
	}

	if tracer != nil {
		if err := writeTrace(tracer, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "secyan: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace written to %s\n", *traceOut)
	}
	if *flightN > 0 {
		fmt.Println()
		obs.WriteFlightTable(os.Stdout, obs.Flight().Records())
	}
	if *debugAddr != "" && *debugLinger > 0 {
		fmt.Printf("debug server lingering for %s...\n", *debugLinger)
		time.Sleep(*debugLinger)
	}
}

// writeTrace dumps the accumulated spans as Chrome trace-event JSON.
func writeTrace(tracer *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printExplain renders the plan of the query's (first) secure execution.
// Query specs prepare their own core.Query values internally, so we
// re-derive a representative one from the database shape: the masked
// relations have the same public sizes as the originals.
func printExplain(spec queries.Spec, db *tpch.DB, ring share.Ring, opts core.Options) error {
	q, err := queries.PlanFor(spec, db)
	if err != nil {
		return err
	}
	plan, err := core.ExplainOpts(q, ring.Bits, opts)
	if err != nil {
		return err
	}
	plan.Format(os.Stdout)
	return nil
}

func runInProcess(spec queries.Spec, db *tpch.DB, ring share.Ring, opts core.Options, maxRows int, analyze, precompute bool, tracer *obs.Tracer) {
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	var trace core.Trace
	if analyze {
		alice.Observer = func(s core.TraceStep) { trace.Steps = append(trace.Steps, s) }
	}
	if tracer != nil {
		alice.Track = tracer.Track("Alice")
		bob.Track = tracer.Track("Bob")
	}
	start := time.Now()
	var offElapsed time.Duration
	var offBytes int64
	if precompute {
		planQ, err := queries.PlanFor(spec, db)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secyan: precompute: %v\n", err)
			os.Exit(1)
		}
		pre := func(p *mpc.Party) (*core.Trace, error) {
			return core.PrecomputeOpts(context.Background(), p, planQ, opts)
		}
		_, _, err = mpc.Run2PC(alice, bob, pre, pre)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secyan: precompute: %v\n", err)
			os.Exit(1)
		}
		offElapsed = time.Since(start)
		offBytes = alice.Conn.Stats().TotalBytes()
	}
	run := func(p *mpc.Party) (*relation.Relation, error) {
		return spec.SecureOpts(p, db, opts)
	}
	res, _, err := mpc.Run2PC(alice, bob, run, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secyan: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	if analyze {
		fmt.Println()
		trace.Format(os.Stdout)
	}
	printResult(res, maxRows)
	st := alice.Conn.Stats()
	fmt.Printf("\nsecure run: %.2fs, %.2f MB exchanged, %d messages, %d rounds\n",
		elapsed.Seconds(), float64(st.TotalBytes())/1e6, st.MessagesSent+st.MessagesRecv, st.Rounds)
	if precompute {
		fmt.Printf("  offline phase: %.2fs, %.2f MB; online phase: %.2fs, %.2f MB\n",
			offElapsed.Seconds(), float64(offBytes)/1e6,
			(elapsed - offElapsed).Seconds(), float64(st.TotalBytes()-offBytes)/1e6)
	}

	plain, err := spec.Plain(db, ring.Bits)
	if err == nil {
		fmt.Printf("plaintext reference rows: %d (secure rows: %d)\n", plain.Len(), res.Len())
	}
}

func runDistributed(spec queries.Spec, db *tpch.DB, ring share.Ring, opts core.Options, role, listen, connect string, maxRows int, analyze, precompute bool, heartbeat, deadline time.Duration, tracer *obs.Tracer) {
	var conn transport.Conn
	var err error
	var r mpc.Role
	switch role {
	case "alice":
		r = mpc.Alice
		if listen == "" {
			fmt.Fprintln(os.Stderr, "secyan: alice needs -listen")
			os.Exit(2)
		}
		fmt.Printf("alice: waiting for bob on %s...\n", listen)
		conn, err = transport.Listen(listen)
	case "bob":
		r = mpc.Bob
		if connect == "" {
			fmt.Fprintln(os.Stderr, "secyan: bob needs -connect")
			os.Exit(2)
		}
		conn, err = transport.Dial(connect)
	default:
		fmt.Fprintf(os.Stderr, "secyan: role must be alice or bob, got %q\n", role)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "secyan: transport: %v\n", err)
		os.Exit(1)
	}

	// The connection runs under the session layer: the protocol gets a
	// logical stream, and the session adds heartbeats and deadlines.
	sess := mpc.NewSession(r, conn, ring, mpc.SessionConfig{
		Heartbeat: heartbeat,
		Deadline:  deadline,
	})
	defer sess.Close()
	p, err := sess.PartyOn(0, mpc.PartyOpts{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "secyan: session: %v\n", err)
		os.Exit(1)
	}
	var trace core.Trace
	if analyze {
		p.Observer = func(s core.TraceStep) { trace.Steps = append(trace.Steps, s) }
	}
	if tracer != nil {
		p.Track = tracer.Track(r.String())
	}
	start := time.Now()
	var offElapsed time.Duration
	var offBytes int64
	if precompute {
		planQ, perr := queries.PlanFor(spec, db)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "secyan: precompute: %v\n", perr)
			os.Exit(1)
		}
		if _, perr = core.PrecomputeOpts(context.Background(), p, planQ, opts); perr != nil {
			fmt.Fprintf(os.Stderr, "secyan: precompute: %v\n", perr)
			os.Exit(1)
		}
		offElapsed = time.Since(start)
		offBytes = p.Conn.Stats().TotalBytes()
	}
	res, err := spec.SecureOpts(p, db, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secyan: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	if analyze {
		trace.Format(os.Stdout)
	}
	if r == mpc.Alice {
		printResult(res, maxRows)
	} else {
		fmt.Println("bob: protocol finished (no output by design)")
	}
	st := p.Conn.Stats()
	fmt.Printf("secure run: %.2fs, %.2f MB exchanged, %d rounds\n",
		elapsed.Seconds(), float64(st.TotalBytes())/1e6, st.Rounds)
	if sst := sess.Stats(); sst.OverheadBytesSent > 0 {
		fmt.Printf("  session overhead: %.1f kB framing/control (%d control messages sent)\n",
			float64(sst.OverheadBytesSent)/1e3, sst.ControlMsgsSent)
	}
	if precompute {
		fmt.Printf("  offline phase: %.2fs, %.2f MB; online phase: %.2fs, %.2f MB\n",
			offElapsed.Seconds(), float64(offBytes)/1e6,
			(elapsed - offElapsed).Seconds(), float64(st.TotalBytes()-offBytes)/1e6)
	}
}

// runDaemonClient executes the query through a secyand daemon: this
// process plays Alice under the daemon's admission control and fair
// scheduler, and receives the results from its own protocol runs.
func runDaemonClient(spec queries.Spec, db *tpch.DB, ring share.Ring, backend string, chunk int, addr, tenant string, count, maxRows int, heartbeat, deadline time.Duration) {
	catalog := daemon.TPCHCatalog(db)
	c, err := daemon.Dial(addr, tenant, catalog, daemon.ClientConfig{Ring: ring, Heartbeat: heartbeat})
	if err != nil {
		fmt.Fprintf(os.Stderr, "secyan: daemon: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()
	fmt.Printf("connected to secyand at %s as tenant %q\n", addr, tenant)
	for i := 0; i < count; i++ {
		start := time.Now()
		res, err := c.Run(context.Background(), daemon.RunSpec{
			Name: spec.Name, Backend: backend, Chunk: chunk, Deadline: deadline,
		})
		switch {
		case errors.Is(err, daemon.ErrQuotaExceeded):
			fmt.Fprintf(os.Stderr, "secyan: shed by tenant quota: %v\n", err)
			os.Exit(3)
		case errors.Is(err, daemon.ErrOverloaded):
			fmt.Fprintf(os.Stderr, "secyan: shed by overload control (retry later): %v\n", err)
			os.Exit(3)
		case err != nil:
			fmt.Fprintf(os.Stderr, "secyan: daemon run: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("run %d/%d: %.2fs\n", i+1, count, time.Since(start).Seconds())
		if i == count-1 {
			printResult(res, maxRows)
		}
	}
}

func printResult(res *relation.Relation, maxRows int) {
	if res == nil {
		return
	}
	fmt.Printf("\nresult (%d rows): %v\n", res.Len(), res.Schema.Attrs)
	for i := 0; i < res.Len() && i < maxRows; i++ {
		fmt.Printf("  %v  ->  %d\n", res.Tuples[i], res.Annot[i])
	}
	if res.Len() > maxRows {
		fmt.Printf("  ... %d more rows\n", res.Len()-maxRows)
	}
}
