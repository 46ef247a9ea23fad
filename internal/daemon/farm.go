package daemon

import (
	"sort"
	"sync"
	"time"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/obs"
)

// The precompute farm keeps protocol ingredients warm against the
// query shapes the daemon has recently seen. Two mechanisms, both
// driven by the same shape history:
//
//   - Staged-circuit inventory (daemon-local): garbling is pure,
//     data-independent compute and the wire format follows the OT
//     pools, not the staged queue (core.PrepareCircuits), so a
//     background builder pre-garbles the circuits of hot shapes with
//     no client involvement. Dispatch attaches a bundle when the
//     digest matches ("hit-circuits"). Without pools, only circuits
//     that have no evaluator inputs are served from it; the others
//     are garbled afresh for their direct label OT.
//
//   - Cooperative warm passes (two-party): OT pool fills need real
//     traffic, so they can only be warmed with the client's help. When
//     an admitted query of a predicted shape must wait for a slot, the
//     daemon asks the client to co-run core.PrecomputeOpts on the query's
//     stream during the wait; the online run then consumes pooled OTs
//     and staged circuits on both sides ("hit-offline").
//
// The shape history counts admissions per plan digest and folds in the
// flight recorder's recent records (obs.Flight), so shapes executed
// outside the daemon's own admission path — or before a farm reset —
// still push a digest over the warm threshold.

// Farm tuning defaults.
const (
	// DefaultWarmAfter is the observation count at which a shape
	// becomes "predicted" (warmed cooperatively and stocked in
	// inventory).
	DefaultWarmAfter = 2
	// DefaultInventoryDepth is the staged-circuit bundles kept per hot
	// shape.
	DefaultInventoryDepth = 1
	// defaultMaxShapes bounds the tracked shape history.
	defaultMaxShapes = 32
)

// shapeInfo is the farm's record of one plan digest.
type shapeInfo struct {
	name    string
	q       *core.Query
	opts    core.Options
	admits  int64 // admissions observed by the daemon
	flight  int64 // occurrences in the flight recorder
	last    time.Time
	inv     []*core.StagedCircuits
	builds  int64
	pending bool // a build is queued or in progress
}

// seen is the shape's effective observation count: its own admissions
// or its flight-recorder presence, whichever is larger (admissions land
// in the recorder too once executed, so summing would double-count).
func (si *shapeInfo) seen() int64 {
	if si.flight > si.admits {
		return si.flight
	}
	return si.admits
}

// farm is the daemon's background precompute farm.
type farm struct {
	role      mpc.Role
	ringBits  int
	warmAfter int64
	depth     int

	mu     sync.Mutex
	shapes map[string]*shapeInfo
	hits   map[string]int64 // "offline" | "circuits"
	misses int64

	buildCh chan string
	stop    chan struct{}
	wg      sync.WaitGroup
}

func newFarm(role mpc.Role, ringBits, warmAfter, depth int) *farm {
	if warmAfter < 1 {
		warmAfter = DefaultWarmAfter
	}
	if depth < 1 {
		depth = DefaultInventoryDepth
	}
	f := &farm{
		role:      role,
		ringBits:  ringBits,
		warmAfter: int64(warmAfter),
		depth:     depth,
		shapes:    map[string]*shapeInfo{},
		hits:      map[string]int64{},
		buildCh:   make(chan string, 64),
		stop:      make(chan struct{}),
	}
	f.wg.Add(1)
	go f.builder()
	return f
}

func (f *farm) shutdown() {
	close(f.stop)
	f.wg.Wait()
}

// observe records one admission of digest and schedules inventory
// builds once the shape crosses the warm threshold. It returns whether
// the shape is predicted (already seen warmAfter times, counting this
// one), which gates the cooperative warm pass.
func (f *farm) observe(digest, name string, q *core.Query, opts core.Options) (predicted bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	si := f.shapes[digest]
	if si == nil {
		if len(f.shapes) >= defaultMaxShapes {
			f.evictColdestLocked()
		}
		si = &shapeInfo{name: name, q: q, opts: opts}
		f.shapes[digest] = si
	}
	si.admits++
	si.last = time.Now()
	f.refreshFromFlightLocked()
	if si.seen() >= f.warmAfter {
		f.requestBuildLocked(digest, si)
		return true
	}
	return false
}

// refreshFromFlightLocked folds the flight recorder's recent records
// into the shape history: each tracked digest's flight count becomes
// the number of recorder entries bearing it.
func (f *farm) refreshFromFlightLocked() {
	recs := obs.Flight().Records()
	counts := make(map[string]int64, len(recs))
	for i := range recs {
		counts[recs[i].PlanDigest]++
	}
	for digest, si := range f.shapes {
		if c := counts[digest]; c > si.flight {
			si.flight = c
		}
	}
}

// evictColdestLocked drops the least-recently-seen shape (and its
// inventory).
func (f *farm) evictColdestLocked() {
	var coldest string
	var when time.Time
	for d, si := range f.shapes {
		if coldest == "" || si.last.Before(when) {
			coldest, when = d, si.last
		}
	}
	delete(f.shapes, coldest)
}

// requestBuildLocked queues an inventory build when the shape is below
// depth and none is pending.
func (f *farm) requestBuildLocked(digest string, si *shapeInfo) {
	if si.pending || len(si.inv) >= f.depth {
		return
	}
	select {
	case f.buildCh <- digest:
		si.pending = true
	default: // builder saturated; next observe retries
	}
}

// builder is the farm's background goroutine: it garbles circuit
// bundles for hot shapes, one at a time, off the dispatch path.
func (f *farm) builder() {
	defer f.wg.Done()
	for {
		select {
		case <-f.stop:
			return
		case digest := <-f.buildCh:
			f.mu.Lock()
			si := f.shapes[digest]
			var q *core.Query
			var opts core.Options
			if si != nil {
				q, opts = si.q, si.opts
			}
			f.mu.Unlock()
			if q == nil {
				continue
			}
			sc, err := core.PrepareCircuits(q, f.ringBits, f.role, opts)
			f.mu.Lock()
			if si = f.shapes[digest]; si != nil {
				si.pending = false
				if err == nil && sc != nil {
					si.inv = append(si.inv, sc)
					si.builds++
					mFarm.Inc("staged")
					if obs.Enabled() {
						obs.Events().Emit("daemon.farm.staged", obs.QueryTag{})
					}
				}
			}
			f.mu.Unlock()
		}
	}
}

// takeInventory pops a staged-circuit bundle for digest, restocking in
// the background.
func (f *farm) takeInventory(digest string) *core.StagedCircuits {
	f.mu.Lock()
	defer f.mu.Unlock()
	si := f.shapes[digest]
	if si == nil || len(si.inv) == 0 {
		return nil
	}
	sc := si.inv[0]
	si.inv[0] = nil // the backing array must not keep an attached bundle alive
	si.inv = si.inv[1:]
	f.requestBuildLocked(digest, si)
	return sc
}

// inventoryReady reports whether a staged bundle is on hand for digest
// (tests poll it before asserting a hit).
func (f *farm) inventoryReady(digest string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	si := f.shapes[digest]
	return si != nil && len(si.inv) > 0
}

// hit and miss record dispatch-time farm outcomes.
func (f *farm) hit(kind string) {
	f.mu.Lock()
	f.hits[kind]++
	f.mu.Unlock()
	mFarm.Inc("hit-" + kind)
}

func (f *farm) miss() {
	f.mu.Lock()
	f.misses++
	f.mu.Unlock()
	mFarm.Inc("miss")
}

// ShapeStatus is one tracked shape in FarmStatus.
type ShapeStatus struct {
	Digest    string `json:"digest"`
	Name      string `json:"name"`
	Seen      int64  `json:"seen"`
	Inventory int    `json:"inventory"`
	Builds    int64  `json:"builds"`
}

// FarmStatus is the farm's externally visible state.
type FarmStatus struct {
	WarmAfter    int64         `json:"warm_after"`
	HitsOffline  int64         `json:"hits_offline"`
	HitsCircuits int64         `json:"hits_circuits"`
	Misses       int64         `json:"misses"`
	HitRate      float64       `json:"hit_rate"`
	Shapes       []ShapeStatus `json:"shapes"`
}

func (f *farm) status() FarmStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FarmStatus{
		WarmAfter:    f.warmAfter,
		HitsOffline:  f.hits["offline"],
		HitsCircuits: f.hits["circuits"],
		Misses:       f.misses,
	}
	if total := st.HitsOffline + st.HitsCircuits + st.Misses; total > 0 {
		st.HitRate = float64(st.HitsOffline+st.HitsCircuits) / float64(total)
	}
	for d, si := range f.shapes {
		st.Shapes = append(st.Shapes, ShapeStatus{
			Digest: d, Name: si.name, Seen: si.seen(),
			Inventory: len(si.inv), Builds: si.builds,
		})
	}
	sort.Slice(st.Shapes, func(i, j int) bool { return st.Shapes[i].Seen > st.Shapes[j].Seen })
	return st
}
