package daemon

import (
	"runtime"
	"testing"
	"time"
)

// TestSchedulerDispatchGates drives the scheduler directly (no TCP)
// with two jobs of one tenant and checks how long the second waits for
// a gate that only the scheduler opens.
func TestSchedulerDispatchGates(t *testing.T) {
	cases := []struct {
		name  string
		quota Quota
		cost  int64
		hold  time.Duration // how long the first job keeps running
		gap   time.Duration // least time from first to second dispatch
	}{
		// 1 000 B at 10 000 B/s: the first job empties the bucket and
		// completes at once. After that completion's wake, only the
		// refill timer wakes the dispatcher, ≈ 100 ms later.
		{"refill timer", Quota{BytesPerSec: 10_000, Burst: 1_000}, 1_000, 0, 90 * time.Millisecond},
		// One running job per tenant: the second waits for the first to
		// complete although three global slots are free.
		{"max concurrent", Quota{MaxConcurrent: 1}, 1, 150 * time.Millisecond, 150 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newScheduler(4, 0, map[string]Quota{"acme": tc.quota}, nil)
			defer s.shutdown()
			started := make(chan time.Time, 2)
			exec := func(j *job) {
				started <- time.Now()
				time.Sleep(tc.hold)
				s.complete(j, nil, 0)
			}
			for i := 0; i < 2; i++ {
				j := &job{tenant: s.tenantRef("acme"), cost: tc.cost, exec: exec}
				if _, err := s.enqueue(j); err != nil {
					t.Fatal(err)
				}
				s.markReady(j)
			}
			var at [2]time.Time
			for i := range at {
				select {
				case at[i] = <-started:
				case <-time.After(time.Second):
					t.Fatalf("job %d not dispatched within 1s", i+1)
				}
			}
			if gap := at[1].Sub(at[0]); gap < tc.gap {
				t.Fatalf("second job dispatched %v after the first, want >= %v", gap, tc.gap)
			}
		})
	}
}

// TestSchedulerReleasesJobs pins that a tenant's FIFO keeps no job
// reachable once it has left the queue, dispatched or shed. A job's
// exec closure holds its query's state (warm party, shape, context).
func TestSchedulerReleasesJobs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cancel bool
	}{{"dispatched", false}, {"shed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newScheduler(1, 0, nil, &Quota{})
			defer s.shutdown()
			done := make(chan struct{}, 1)
			freed := make(chan struct{})
			j := &job{
				tenant: s.tenantRef("acme"),
				cost:   1,
				exec: func(j *job) {
					s.complete(j, nil, 0)
					done <- struct{}{}
				},
				shed: func(*job, error) { done <- struct{}{} },
			}
			runtime.SetFinalizer(j, func(*job) { close(freed) })
			if _, err := s.enqueue(j); err != nil {
				t.Fatal(err)
			}
			if tc.cancel {
				s.cancel(j)
			} else {
				s.markReady(j)
			}
			j = nil
			<-done
			for i := 0; i < 50; i++ {
				runtime.GC()
				select {
				case <-freed:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("job still reachable after leaving the queue")
		})
	}
}

// TestSchedulerSkipsUnreadyHead pins the ready gate: a job whose warm
// pass has not landed holds no slot, so another tenant's ready job runs
// first although its finish tag is larger, and the first job runs once
// it is marked ready.
func TestSchedulerSkipsUnreadyHead(t *testing.T) {
	s := newScheduler(1, 0, nil, &Quota{})
	defer s.shutdown()
	started := make(chan string, 2)
	exec := func(j *job) {
		started <- j.name
		s.complete(j, nil, 0)
	}
	warming := &job{tenant: s.tenantRef("acme"), name: "warming", cost: 1, exec: exec}
	ready := &job{tenant: s.tenantRef("globex"), name: "ready", cost: 1000, exec: exec}
	for _, j := range []*job{warming, ready} {
		if _, err := s.enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	next := func() string {
		select {
		case name := <-started:
			return name
		case <-time.After(time.Second):
			t.Fatal("no job dispatched within 1s")
			return ""
		}
	}
	s.markReady(ready)
	if got := next(); got != "ready" {
		t.Fatalf("dispatched %q first, want the ready job", got)
	}
	s.markReady(warming)
	if got := next(); got != "warming" {
		t.Fatalf("dispatched %q second, want the job marked ready", got)
	}
}
