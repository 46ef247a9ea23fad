package daemon

import (
	"fmt"
	"sync"
	"time"
)

// Weighted fair queueing over estimated communication. Every admitted
// job gets virtual start/finish tags in the classic SFQ form
//
//	S = max(V, tenant.lastTag)        F = S + cost / weight
//
// where V is the scheduler's virtual time (advanced to the start tag of
// each dispatched job) and cost is the plan's estimated total bytes —
// the same currency the planner already prices in. Dispatch
// picks the eligible head-of-queue job with the smallest finish tag, so
// a heavy tenant's backlog cannot starve a light tenant: the light
// tenant's next job carries a smaller finish tag and wins the next
// slot (TestDaemonFairnessNoStarvation).
//
// Admission control sheds rather than queues unboundedly: a full global
// queue or a draining daemon rejects with ErrOverloaded; a tenant over
// its queued-depth bound, or pricing a query above its burst capacity,
// rejects with ErrQuotaExceeded. Rejections are typed errors delivered
// over the control stream — never dropped connections.

// job is one admitted query execution awaiting dispatch.
type job struct {
	tenant *tenant
	qid    uint64
	name   string
	cost   int64 // estimated total bytes (plan EstBytes)

	stag, ftag float64 // WFQ virtual start/finish tags
	enqueued   time.Time

	// ready gates dispatch: the owning connection marks the job ready
	// once its warm pass, if it has one, has landed.
	ready     bool
	cancelled bool

	// exec runs the query (and must call scheduler.complete); shed is
	// called instead when the scheduler drops a queued job (drain or
	// cancelled connection).
	exec func(*job)
	shed func(*job, error)
}

// scheduler is the daemon's WFQ dispatcher.
type scheduler struct {
	slots     int
	maxQueued int

	mu       sync.Mutex
	tenants  map[string]*tenant
	quotas   map[string]Quota
	fallback *Quota // quota for unknown tenants; nil rejects them
	vtime    float64
	running  int
	queued   int
	draining bool
	idle     chan struct{} // closed when draining and running==0

	kick  chan struct{}
	stop  chan struct{}
	timer *time.Timer
}

func newScheduler(slots, maxQueued int, quotas map[string]Quota, fallback *Quota) *scheduler {
	if slots < 1 {
		slots = 1
	}
	if maxQueued < 1 {
		maxQueued = 64
	}
	s := &scheduler{
		slots:     slots,
		maxQueued: maxQueued,
		tenants:   map[string]*tenant{},
		quotas:    quotas,
		fallback:  fallback,
		idle:      make(chan struct{}),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	go s.loop()
	return s
}

// tenantFor returns (creating if needed) the tenant's scheduler state,
// or nil when the tenant is unknown and no fallback quota admits it.
// Caller holds s.mu.
func (s *scheduler) tenantFor(name string) *tenant {
	if t := s.tenants[name]; t != nil {
		return t
	}
	q, ok := s.quotas[name]
	if !ok {
		if s.fallback == nil {
			return nil
		}
		q = *s.fallback
	}
	t := &tenant{name: name, quota: q}
	s.tenants[name] = t
	return t
}

// tenantRef returns (creating if needed) the tenant's state, or nil
// for an inadmissible tenant.
func (s *scheduler) tenantRef(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantFor(name)
}

// knownTenant reports whether name would be admitted (without creating
// state).
func (s *scheduler) knownTenant(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[name]; ok {
		return true
	}
	_, ok := s.quotas[name]
	return ok || s.fallback != nil
}

// enqueue admits j or sheds it with a typed error. On success it
// reports whether the job will (likely) wait for a slot — the signal
// the connection uses to decide on a cooperative warm pass. The job is
// not dispatchable until markReady.
func (s *scheduler) enqueue(j *job) (queuedBehind bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := j.tenant
	if s.draining {
		t.rejectedOverload++
		mQueries.Inc(t.name, "rejected-overloaded")
		return false, fmt.Errorf("draining: %w", ErrOverloaded)
	}
	if s.queued >= s.maxQueued {
		t.rejectedOverload++
		mQueries.Inc(t.name, "rejected-overloaded")
		return false, fmt.Errorf("global queue full (%d): %w", s.maxQueued, ErrOverloaded)
	}
	if len(t.queue) >= t.quota.maxQueued() {
		t.rejectedQuota++
		mQueries.Inc(t.name, "rejected-quota")
		return false, fmt.Errorf("tenant %q queue full (%d): %w", t.name, t.quota.maxQueued(), ErrQuotaExceeded)
	}
	if t.quota.BytesPerSec > 0 && j.cost > t.quota.burst() {
		t.rejectedQuota++
		mQueries.Inc(t.name, "rejected-quota")
		return false, fmt.Errorf("tenant %q: query estimate %dB exceeds burst capacity %dB: %w",
			t.name, j.cost, t.quota.burst(), ErrQuotaExceeded)
	}

	j.stag = max(s.vtime, t.lastTag)
	j.ftag = j.stag + float64(j.cost)/t.quota.weight()
	t.lastTag = j.ftag
	j.enqueued = time.Now()
	t.queue = append(t.queue, j)
	t.admitted++
	t.estBytesCharged += j.cost
	s.queued++
	mQueries.Inc(t.name, "admitted")
	mQueued.Set(int64(len(t.queue)), t.name)
	mQueueDepth.Set(int64(s.queued))

	// Will the job wait? A free global slot, tenant concurrency
	// headroom, affordable tokens and no queued predecessor mean
	// immediate dispatch once ready.
	t.refill(j.enqueued)
	wait := s.running >= s.slots ||
		(t.quota.MaxConcurrent > 0 && t.running >= t.quota.MaxConcurrent) ||
		t.tokenWait(j.cost) > 0 ||
		len(t.queue) > 1
	return wait, nil
}

// markReady makes j dispatchable.
func (s *scheduler) markReady(j *job) {
	s.mu.Lock()
	j.ready = true
	s.mu.Unlock()
	s.wake()
}

// cancel marks a queued job cancelled (its connection died); the
// dispatcher sheds it without running. Running jobs finish on their
// own — their streams fail with the session.
func (s *scheduler) cancel(j *job) {
	s.mu.Lock()
	j.cancelled = true
	j.ready = true
	s.mu.Unlock()
	s.wake()
}

// complete records one finished execution and frees its slot.
func (s *scheduler) complete(j *job, err error, measuredBytes int64) {
	s.mu.Lock()
	t := j.tenant
	t.running--
	s.running--
	t.measuredBytes += measuredBytes
	if err != nil {
		t.failed++
		mQueries.Inc(t.name, "failed")
	} else {
		t.completed++
		mQueries.Inc(t.name, "completed")
	}
	mRunning.Set(int64(t.running), t.name)
	mQueryBytes.Add(measuredBytes, t.name)
	if s.draining && s.running == 0 {
		s.closeIdleLocked()
	}
	s.mu.Unlock()
	s.wake()
}

// drain stops admission (new and queued jobs are shed with
// ErrOverloaded) and returns a channel closed when the last running
// query finishes.
func (s *scheduler) drain() <-chan struct{} {
	s.mu.Lock()
	s.draining = true
	if s.running == 0 {
		s.closeIdleLocked()
	}
	s.mu.Unlock()
	s.wake()
	return s.idle
}

// closeIdleLocked closes the idle channel once.
func (s *scheduler) closeIdleLocked() {
	select {
	case <-s.idle:
	default:
		close(s.idle)
	}
}

// shutdown stops the dispatch loop.
func (s *scheduler) shutdown() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.wake()
}

func (s *scheduler) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// loop is the single dispatcher goroutine.
func (s *scheduler) loop() {
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		}
		s.dispatch()
	}
}

// dispatch starts every currently eligible job and sheds what must be
// shed; when a job is blocked only by its token bucket, it arms a
// timer to retry at refill time.
func (s *scheduler) dispatch() {
	type shedded struct {
		j   *job
		err error
	}
	var toShed []shedded
	var toRun []*job

	s.mu.Lock()
	now := time.Now()
	var nextRefill time.Duration
	for {
		// Shed cancelled heads and, when draining, entire queues.
		for _, t := range s.tenants {
			kept := t.queue[:0]
			for _, j := range t.queue {
				switch {
				case j.cancelled:
					toShed = append(toShed, shedded{j, fmt.Errorf("secyand: connection closed")})
					s.queued--
					t.failed++
					mQueries.Inc(t.name, "failed")
				case s.draining:
					toShed = append(toShed, shedded{j, fmt.Errorf("draining: %w", ErrOverloaded)})
					s.queued--
					t.rejectedOverload++
					mQueries.Inc(t.name, "rejected-overloaded")
				default:
					kept = append(kept, j)
				}
			}
			clear(t.queue[len(kept):]) // the backing array must not keep shed jobs alive
			t.queue = kept
			mQueued.Set(int64(len(t.queue)), t.name)
		}
		mQueueDepth.Set(int64(s.queued))
		if s.draining || s.running >= s.slots {
			break
		}
		// Pick the eligible head-of-queue job with the least finish tag.
		var best *job
		for _, t := range s.tenants {
			if len(t.queue) == 0 {
				continue
			}
			j := t.queue[0]
			if !j.ready {
				continue
			}
			if t.quota.MaxConcurrent > 0 && t.running >= t.quota.MaxConcurrent {
				continue
			}
			t.refill(now)
			if w := t.tokenWait(j.cost); w > 0 {
				if nextRefill == 0 || w < nextRefill {
					nextRefill = w
				}
				continue
			}
			if best == nil || j.ftag < best.ftag {
				best = j
			}
		}
		if best == nil {
			break
		}
		t := best.tenant
		t.queue[0] = nil // the backing array must not keep a dispatched job alive
		t.queue = t.queue[1:]
		s.queued--
		if t.quota.BytesPerSec > 0 {
			t.tokens -= float64(best.cost)
		}
		if best.stag > s.vtime {
			s.vtime = best.stag
		}
		t.running++
		s.running++
		wait := now.Sub(best.enqueued)
		t.queueWait += wait
		mQueueWait.Observe(int64(wait), t.name)
		mRunning.Set(int64(t.running), t.name)
		mQueued.Set(int64(len(t.queue)), t.name)
		mQueueDepth.Set(int64(s.queued))
		toRun = append(toRun, best)
	}
	if nextRefill > 0 && s.timer == nil && !s.draining {
		s.timer = time.AfterFunc(nextRefill+time.Millisecond, func() {
			s.mu.Lock()
			s.timer = nil
			s.mu.Unlock()
			s.wake()
		})
	}
	s.mu.Unlock()

	for _, sh := range toShed {
		if sh.j.shed != nil {
			sh.j.shed(sh.j, sh.err)
		}
	}
	for _, j := range toRun {
		go j.exec(j)
	}
}

// snapshotTenants returns every tenant's status plus the global
// counters, sorted by name by the caller.
func (s *scheduler) snapshotTenants() (tenants []TenantStatus, running, queued int, draining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	for _, t := range s.tenants {
		t.refill(now)
		tenants = append(tenants, t.status())
	}
	return tenants, s.running, s.queued, s.draining
}
