package obs

import (
	"sort"
	"sync"
)

// StepStatus is the live snapshot of the plan step one query execution
// is in right now, published by the executor in internal/core and served
// as JSON on the debug server's /debug/step endpoint. Entries are keyed
// by query ID, so concurrent executions in one process — a daemon's
// slots, both halves of an in-process pair — never share one.
type StepStatus struct {
	QID    uint64 `json:"qid"`
	SID    uint64 `json:"sid,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Party  string `json:"party"`
	Phase  string `json:"phase"`
	Op     string `json:"op"`
	Node   string `json:"node"`
	N      int    `json:"n"`
	// Step is the 1-based index of the executing step; Steps the plan's
	// total step count.
	Step  int `json:"step"`
	Steps int `json:"steps"`
	// StartedUnixNano is the wall-clock start of the step.
	StartedUnixNano int64 `json:"started_unix_nano"`
}

var (
	statusMu sync.Mutex
	current  map[uint64]StepStatus
)

// SetCurrentStep publishes the step query st.QID is executing right
// now. Callers gate on Enabled(), so an unobserved run pays nothing.
func SetCurrentStep(st StepStatus) {
	statusMu.Lock()
	if current == nil {
		current = make(map[uint64]StepStatus)
	}
	current[st.QID] = st
	statusMu.Unlock()
}

// ClearCurrentStep removes the query's entry when its run finishes.
func ClearCurrentStep(qid uint64) {
	statusMu.Lock()
	delete(current, qid)
	statusMu.Unlock()
}

// CurrentSteps returns the executing steps of all queries in this
// process, sorted by query ID; empty when nothing is running.
func CurrentSteps() []StepStatus {
	statusMu.Lock()
	out := make([]StepStatus, 0, len(current))
	for _, st := range current {
		out = append(out, st)
	}
	statusMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].QID < out[j].QID })
	return out
}
