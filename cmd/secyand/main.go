// Command secyand is the long-running secure-query daemon: it serves
// the TPC-H catalog to many concurrent client sessions, playing Bob in
// every protocol execution while clients (cmd/secyan -daemon) play
// Alice and receive their own results.
//
// Queries pass admission control (per-tenant quotas on concurrency,
// queued depth, and estimated bytes per second) and a weighted
// fair-queueing scheduler before execution, so a heavy tenant cannot
// starve a light one; shed queries get typed rejections over the
// control stream, never dropped connections. A query that must wait for
// a slot spends the wait on its own offline phase (OT pools and
// garbled circuits), co-run with its client, so it starts online with
// that work already done.
//
//	secyand -listen :9440 -scale 1 -tenants "acme:4,globex:1" -debug-addr localhost:6060
//
// Clients must generate the same catalog data (-scale, -seed) and
// introduce themselves with a tenant name from -tenants (or any name,
// when -open-admission is set).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"secyan/internal/daemon"
	"secyan/internal/obs"
	"secyan/internal/tpch"
)

func main() {
	listen := flag.String("listen", ":9440", "address to accept client sessions on")
	scale := flag.Float64("scale", 0.05, "dataset size in MB (cmd/secyan's default); clients must match")
	seed := flag.Int64("seed", 1, "data generation seed (cmd/secyan's default); clients must match")
	slots := flag.Int("slots", 4, "globally concurrent query executions")
	maxQueued := flag.Int("max-queued", 64, "total admitted-but-waiting queries before shedding with overloaded")
	tenantSpec := flag.String("tenants", "", "comma-separated tenant:weight list, e.g. \"acme:4,globex:1\" (weight defaults to 1)")
	openAdmission := flag.Bool("open-admission", false, "admit tenants not named in -tenants under the default quota")
	maxConcurrent := flag.Int("tenant-max-concurrent", 0, "per-tenant concurrent query bound (0 = unlimited)")
	maxQueuedTenant := flag.Int("tenant-max-queued", daemon.DefaultMaxQueued, "per-tenant queued-depth bound before shedding with quota-exceeded")
	bytesPerSec := flag.Int64("tenant-bytes-per-sec", 0, "per-tenant estimated-bytes-per-second budget (0 = unlimited)")
	burst := flag.Int64("tenant-burst", 0, "per-tenant byte-budget burst capacity (0 = 4x the rate)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/tenants, /debug/queries, /healthz, /readyz on this address")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound for running queries on SIGTERM")
	heartbeat := flag.Duration("heartbeat", 0, "session heartbeat interval (0 = transport default)")
	logJSON := flag.Bool("log-json", false, "emit the structured event log as JSON lines on stderr")
	flightN := flag.Int("flight", 256, "completed-query flight records to retain (served at /debug/queries)")
	flag.Parse()

	base := daemon.Quota{
		MaxConcurrent: *maxConcurrent,
		MaxQueued:     *maxQueuedTenant,
		BytesPerSec:   *bytesPerSec,
		Burst:         *burst,
	}
	quotas, err := parseTenants(*tenantSpec, base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secyand: %v\n", err)
		os.Exit(2)
	}
	var defQuota *daemon.Quota
	if *openAdmission || len(quotas) == 0 {
		defQuota = &base
	}

	if *logJSON {
		obs.Events().SetJSONSink(os.Stderr)
	}
	obs.Flight().SetCapacity(*flightN)

	fmt.Printf("secyand: generating TPC-H data (scale %.2f MB, seed %d)\n", *scale, *seed)
	db := tpch.Generate(tpch.Config{ScaleMB: *scale, Seed: *seed})

	d, err := daemon.New(daemon.Config{
		Catalog:      daemon.TPCHCatalog(db),
		Slots:        *slots,
		MaxQueued:    *maxQueued,
		Tenants:      quotas,
		DefaultQuota: defQuota,
		Heartbeat:    *heartbeat,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "secyand: %v\n", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secyand: listen: %v\n", err)
		os.Exit(2)
	}

	// Debug server second: /readyz turning ok implies the client
	// listener above is already accepting.
	if *debugAddr != "" {
		bound, stop, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secyand: debug server: %v\n", err)
			os.Exit(2)
		}
		defer stop()
		fmt.Printf("secyand: debug server on http://%s (try /debug/tenants)\n", bound)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- d.Serve(ln) }()
	fmt.Printf("secyand: serving %d-slot scheduler on %s\n", *slots, ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errCh:
		if err != nil {
			fmt.Fprintf(os.Stderr, "secyand: serve: %v\n", err)
			os.Exit(1)
		}
		return
	case sig := <-sigCh:
		fmt.Printf("secyand: %v: draining (up to %s)\n", sig, *drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "secyand: %v\n", err)
		os.Exit(1)
	}
	<-errCh
	fmt.Println("secyand: drained cleanly")
}

// parseTenants turns "acme:4,globex:1" into a quota map; weights
// default to 1, all other knobs come from the shared base quota.
func parseTenants(spec string, base daemon.Quota) (map[string]daemon.Quota, error) {
	quotas := map[string]daemon.Quota{}
	if spec == "" {
		return quotas, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(entry, ":")
		if name == "" {
			return nil, fmt.Errorf("bad -tenants entry %q", entry)
		}
		q := base
		q.Weight = 1
		if hasWeight {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 1 {
				return nil, fmt.Errorf("bad weight in -tenants entry %q", entry)
			}
			q.Weight = w
		}
		quotas[name] = q
	}
	return quotas, nil
}
