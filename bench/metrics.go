package main

// metricDef names one metric. The tables below are the single source of
// the names, units and bounds: BENCHMARK.json repeats them (bench_test.go
// checks the two agree) and -compare applies the bounds.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd lists what the two organisations running a query (and the
// operator of secyand) see; every workload reports every one. Bound is
// the share of the parent's median by which the metric may get worse.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_s", "s", "lower", 0.25},
	{"online_s", "s", "lower", 0.25},
	{"wire_bytes", "B", "lower", 0.02},
	{"alloc_bytes", "B", "lower", 0.08},
	{"peak_heap_bytes", "B", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
}

// reportedOnly are end-to-end observations that every untraced run
// prints and result.json carries, but BENCHMARK.json does not bound,
// because on this machine ten runs of them spread wider than the 25 % a
// bound may be. lat_p80_s and qps are a tail and a mean: a run in the
// machine's slow state, or one multi-second stall, moves them by half.
// first_query_s and peak_rss_bytes are one sample per process of the
// cold planner, whose time and heap growth vary by a fifth from run to
// run (setup_s carries the same cost under the one bound that is exempt
// from the spread check). offline_s exists on q18_pre only, and a
// bounded metric must be non-zero on every workload.
var reportedOnly = []metricDef{
	{Name: "lat_p80_s", Unit: "s", Better: "lower"},
	{Name: "qps", Unit: "1/s", Better: "higher"},
	{Name: "first_query_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_bytes", Unit: "B", Better: "lower"},
	{Name: "offline_s", Unit: "s", Better: "lower"},
}

// perLayer lists the single-layer metrics of the traced run, layer by
// layer (the prefix is the package). A metric a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	// core: planner
	{Name: "core.plan_cold_s", Unit: "s", Better: "lower"},
	{Name: "core.plan_cold_alloc_bytes", Unit: "B", Better: "lower"},
	{Name: "core.plan_warm_s", Unit: "s", Better: "lower"},
	{Name: "core.plan_steps", Unit: "count", Better: "lower"},
	{Name: "core.est_bytes_ratio", Unit: "ratio", Better: "lower"},
	// core: executor, from observer spans on Alice
	{Name: "core.phase.offline_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.setup_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.input_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.reduce_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.aggregate_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.semijoin_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.join_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.reveal_s", Unit: "s", Better: "lower"},
	{Name: "core.phase.offline_bytes", Unit: "B", Better: "lower"},
	{Name: "core.phase.setup_bytes", Unit: "B", Better: "lower"},
	{Name: "core.phase.input_bytes", Unit: "B", Better: "lower"},
	{Name: "core.phase.reduce_bytes", Unit: "B", Better: "lower"},
	{Name: "core.phase.aggregate_bytes", Unit: "B", Better: "lower"},
	{Name: "core.phase.semijoin_bytes", Unit: "B", Better: "lower"},
	{Name: "core.phase.join_bytes", Unit: "B", Better: "lower"},
	{Name: "core.phase.reveal_bytes", Unit: "B", Better: "lower"},
	{Name: "core.rounds", Unit: "count", Better: "lower"},
	{Name: "core.attributed_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.pre.offline_s", Unit: "s", Better: "lower"},
	{Name: "core.pre.online_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.pre.offline_bytes_frac", Unit: "ratio", Better: "higher"},
	// ot
	{Name: "ot.base_s", Unit: "s", Better: "lower"},
	{Name: "ot.ext_ots_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ot.ext_bytes_per_ot", Unit: "B", Better: "lower"},
	{Name: "ot.fill_ots_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ot.pooled_ots_per_s", Unit: "1/s", Better: "higher"},
	// gc
	{Name: "gc.build_gates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gc.garble_gates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gc.run_gates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gc.online_gates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gc.table_bytes_per_and", Unit: "B", Better: "lower"},
	// psi / cuckoo
	{Name: "psi.elems_per_s", Unit: "1/s", Better: "higher"},
	{Name: "psi.bytes_per_elem", Unit: "B", Better: "lower"},
	{Name: "psi.shared_elems_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cuckoo.build_items_per_s", Unit: "1/s", Better: "higher"},
	// oep / permnet
	{Name: "oep.elems_per_s", Unit: "1/s", Better: "higher"},
	{Name: "oep.bytes_per_elem", Unit: "B", Better: "lower"},
	{Name: "permnet.route_elems_per_s", Unit: "1/s", Better: "higher"},
	// prf / bitutil
	{Name: "prf.hash_blocks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bitutil.transpose_bits_per_s", Unit: "1/s", Better: "higher"},
	// transport / mpc
	{Name: "transport.pipe_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "transport.tcp_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "transport.mux_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "transport.pipe_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.mux_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.mux_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "mpc.stream_open_us", Unit: "us", Better: "lower"},
	// daemon
	{Name: "daemon.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.farm_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "daemon.farm_hits_offline", Unit: "count", Better: "higher"},
	{Name: "daemon.farm_hits_circuits", Unit: "count", Better: "higher"},
	{Name: "daemon.farm_misses", Unit: "count", Better: "lower"},
	{Name: "daemon.farm_builds", Unit: "count", Better: "lower"},
	{Name: "daemon.measured_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "daemon.est_over_measured_bytes", Unit: "ratio", Better: "lower"},
	{Name: "daemon.tenant_share_ratio", Unit: "ratio", Better: "lower"},
	{Name: "daemon.rejected", Unit: "count", Better: "lower"},
	{Name: "daemon.dial_s", Unit: "s", Better: "lower"},
	{Name: "daemon.shutdown_s", Unit: "s", Better: "lower"},
	// yannakakis / tpch
	{Name: "yannakakis.plain_s", Unit: "s", Better: "lower"},
	{Name: "tpch.generate_s", Unit: "s", Better: "lower"},
	// obs
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a table, so that a name outside the
// table is a bug caught at once and a name never set is reported as 0.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metricValue{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}
