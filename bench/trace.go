package main

import (
	"sort"
	"sync"
	"time"
)

// span is one recorded interval. Kind is its level — workload, query,
// phase, step (one party's side of a query, from its observer), probe
// (one call into a layer) or call (a daemon client call). Parent is the
// span that caused it (0 for a root); spans of one query share Query.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Query  int                `json:"query,omitempty"`
	Kind   string             `json:"kind"`
	Party  string             `json:"party,omitempty"`
	Layer  string             `json:"layer"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"` // seconds since process start
	End    float64            `json:"end_s"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer (the
// untraced run) records nothing.
type tracer struct {
	mu        sync.Mutex
	spans     []span
	lastQuery int
}

// add records s over [start, end] and returns its id.
func (t *tracer) add(s span, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Start, s.End = start.Sub(processStart).Seconds(), end.Sub(processStart).Seconds()
	t.spans = append(t.spans, s)
	return s.ID
}

// newQuery hands out the identifier the spans of one query share.
func (t *tracer) newQuery() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastQuery++
	return t.lastQuery
}

// setEnd closes a span that was added before its children ran.
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(processStart).Seconds()
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its children cover.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// stepRecord is one plan step as the Party.Observer callback saw it:
// the callback runs right after the step, so it ends now and began
// Elapsed earlier.
type stepRecord struct {
	st  stepTrace
	end time.Time
}

// stepCollector is a Party.Observer that keeps the steps of one query.
type stepCollector struct {
	steps []stepRecord
}

func (c *stepCollector) observe(st stepTrace) {
	c.steps = append(c.steps, stepRecord{st: st, end: time.Now()})
}

// addQuerySpans records workload → query → phase → step for one party's
// side of a query: consecutive steps of one phase make a phase span.
func (t *tracer) addQuerySpans(parent, query int, party, name string, start, end time.Time, steps []stepRecord, attrs map[string]float64) {
	if t == nil {
		return
	}
	of := func(kind string, parent int, name string) span {
		return span{Parent: parent, Query: query, Kind: kind, Party: party, Layer: "core", Name: name}
	}
	q := of("query", parent, name)
	q.Attrs = attrs
	qid := t.add(q, start, end)
	for i := 0; i < len(steps); {
		j := i
		for j < len(steps) && steps[j].st.Phase == steps[i].st.Phase {
			j++
		}
		pid := t.add(of("phase", qid, steps[i].st.Phase), steps[i].end.Add(-steps[i].st.Elapsed), steps[j-1].end)
		for _, s := range steps[i:j] {
			step := of("step", pid, s.st.Op+"["+s.st.Node+"]")
			step.Attrs = map[string]float64{
				"bytes": float64(s.st.Bytes), "est_bytes": float64(s.st.EstBytes),
				"rounds": float64(s.st.Rounds), "n": float64(s.st.N),
			}
			t.add(step, s.end.Add(-s.st.Elapsed), s.end)
		}
		i = j
	}
}

// attributedFrac is Σ step spans ÷ Σ query spans on Alice: how much of
// the queries' wall time the executor's step records account for.
func attributedFrac(spans []span) float64 {
	var queries, steps float64
	for _, s := range spans {
		if s.Party != "alice" {
			continue
		}
		switch s.Kind {
		case "query":
			queries += s.End - s.Start
		case "step":
			steps += s.End - s.Start
		}
	}
	if queries == 0 {
		return 0
	}
	return steps / queries
}
