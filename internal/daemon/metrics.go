package daemon

import "secyan/internal/obs"

// Daemon metrics: per-tenant admission outcomes, live scheduler gauges,
// measured per-tenant communication, queue-wait latency and farm
// effectiveness. Bounded-cardinality labeled families (DESIGN.md §12) —
// tenant names are operator-configured, not attacker-controlled.
var (
	mQueries = obs.NewCounter("secyan_daemon_queries_total",
		"Daemon queries by admission outcome (admitted | rejected-overloaded | rejected-quota | completed | failed).",
		"tenant", "outcome")
	mRunning = obs.NewGauge("secyan_daemon_running",
		"Queries currently executing, by tenant.", "tenant")
	mQueued = obs.NewGauge("secyan_daemon_queued",
		"Queries admitted and waiting for dispatch, by tenant.", "tenant")
	mQueryBytes = obs.NewCounter("secyan_daemon_query_bytes_total",
		"Measured per-query communication (both directions) of completed daemon queries, by tenant.", "tenant")
	mQueueWait = obs.NewHistogram("secyan_daemon_queue_wait_ns",
		"Admission-to-dispatch queue wait in nanoseconds, by tenant.", "tenant")
	mFarm = obs.NewCounter("secyan_daemon_farm_events_total",
		"Precompute-farm outcomes at dispatch (hit-offline | miss).",
		"outcome")
	mSessions = obs.NewGauge("secyan_daemon_sessions",
		"Client sessions currently connected.")
	mQueueDepth = obs.NewGauge("secyan_daemon_queue_depth",
		"Total queries queued across all tenants.")
)
