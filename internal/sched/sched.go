// Package sched is the process-global simulation scheduler: every
// experiment submits its simulations to one bounded worker pool instead
// of running a private semaphore, and completed runs are memoized in a
// content-addressed cache so two experiments requesting the same
// (kernel, model, configuration) combination share one execution.
//
// Three mechanisms compose:
//
//   - A resizable bounded pool. Do blocks until a worker slot is free,
//     so the total simulation concurrency stays bounded no matter how
//     many experiments fan out at once.
//   - Content-keyed memoization. Cacheable runs are stored by a digest
//     of everything that determines their result (see KeyOf); a later
//     request with the same key returns the stored value without
//     simulating. Cached values are immutable snapshots — callers must
//     not mutate anything reachable from a returned value.
//   - Singleflight deduplication. A request whose key matches a run
//     already in flight joins it (waits for the one execution) instead
//     of starting a second simulation.
//
// Every Do call returns a Provenance (hit / miss / joined, queue wait,
// simulation wall time); cumulative counters are available through
// Stats and, for interval sampling and export, through the scheduler's
// metrics.Registry.
package sched

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"carf/internal/metrics"
)

// Key is a content digest identifying one simulation request. Two
// requests with equal keys must be guaranteed to produce identical
// results (the simulator is deterministic, so a key covering every
// result-affecting input is sufficient).
type Key [sha256.Size]byte

// Short returns the first 8 hex digits of the key — the correlation id
// used in telemetry output (span attributes, /runs rows, log fields).
// Short ids are for humans; full keys stay the cache identity.
func (k Key) Short() string { return hex.EncodeToString(k[:4]) }

// KeyOf digests the given parts into a Key. Parts are rendered with
// %#v, which spells out field names and values of nested structs, so
// any config difference — and any field added to a config struct later
// — changes the digest. Callers must include everything the run's
// result depends on: kernel name, workload scale, model spec identity,
// pipeline configuration, and any sampler/checker/injection knobs.
func KeyOf(parts ...any) Key {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%#v\x1f", p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Outcome classifies how a Do call was served.
type Outcome uint8

const (
	// Miss: the run was simulated by this call.
	Miss Outcome = iota
	// Hit: the result came from the in-memory completed-run cache.
	Hit
	// Joined: an identical run was already in flight; this call waited
	// for it and shared its result.
	Joined
	// DiskHit: the result came from the persistent tier (see SetTier) —
	// computed by an earlier process or evicted from memory since.
	DiskHit
	// Canceled: the request's context expired before a result was
	// available (while queued for a worker slot, or while joined to an
	// in-flight run that had not finished yet).
	Canceled
	// PeerHit: another *process* sharing the persistent tier held the
	// cross-process lease for this key (see Locker); this call waited
	// for the peer's blob to land instead of simulating. The
	// cross-process analogue of Joined.
	PeerHit
)

func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Joined:
		return "joined"
	case DiskHit:
		return "disk-hit"
	case Canceled:
		return "canceled"
	case PeerHit:
		return "peer-hit"
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// Provenance describes how one Do call was served. QueueWait and
// SimWall are nonzero only for misses (the call that actually ran the
// simulation). Key is the request's content digest — the correlation id
// that ties this run to its telemetry spans, /runs row, and log lines.
type Provenance struct {
	Outcome   Outcome
	Key       Key           // content digest of the request (correlation id)
	QueueWait time.Duration // Do entry until a worker slot was acquired
	SimWall   time.Duration // wall time inside the simulation function

	// LeaseWait is the time spent waiting on another process's
	// cross-process lease for this key: the full wait for PeerHit
	// outcomes (the peer's result landed), or the wait before a stale
	// lease was taken over for misses that had to contend. Zero when no
	// Locker is attached or the lease was free.
	LeaseWait time.Duration
}

// Stats is a snapshot of a scheduler's cumulative counters.
type Stats struct {
	Workers      int    // current pool bound
	CacheEntries int    // completed runs held in the memo cache
	Runs         uint64 // total Do calls
	Misses       uint64 // runs simulated
	Hits         uint64 // runs served from the in-memory cache
	Joins        uint64 // runs that joined an in-flight execution
	DiskHits     uint64 // runs served from the persistent tier
	PeerHits     uint64 // runs served by a peer process via the shared tier
	Canceled     uint64 // runs abandoned by their context before a result
	Evictions    uint64 // memory-cache entries evicted by the LRU bound
	Errors       uint64 // simulations that returned an error (never cached)

	QueueWait time.Duration // cumulative worker-slot wait over misses
	SimWall   time.Duration // cumulative simulation wall time over misses
	LeaseWait time.Duration // cumulative cross-process lease wait (peer hits + contended misses)
}

// Delta returns st minus prev, for measuring one phase of a scheduler's
// life (cumulative counters only; Workers and CacheEntries are kept
// from st).
func (st Stats) Delta(prev Stats) Stats {
	st.Runs -= prev.Runs
	st.Misses -= prev.Misses
	st.Hits -= prev.Hits
	st.Joins -= prev.Joins
	st.DiskHits -= prev.DiskHits
	st.PeerHits -= prev.PeerHits
	st.Canceled -= prev.Canceled
	st.Evictions -= prev.Evictions
	st.Errors -= prev.Errors
	st.QueueWait -= prev.QueueWait
	st.SimWall -= prev.SimWall
	st.LeaseWait -= prev.LeaseWait
	return st
}

// Observer receives run lifecycle callbacks from a scheduler: every Do
// call announces itself once on entry (RunEnqueued), misses additionally
// report worker-slot acquisition (RunStarted), and every call reports
// its outcome on exit (RunFinished). Executing DoProgress runs
// additionally stream RunProgressed frames between RunStarted and
// RunFinished (throttled; see SetProgressInterval). Callbacks run on
// the requesting goroutine, outside the scheduler lock, so an observer
// may call Stats or Metrics — but must return quickly and must not call
// Do. The id is unique per scheduler and strictly increasing in enqueue
// order; for one id the callbacks are ordered (enqueued happens-before
// started happens-before each progressed happens-before finished),
// while callbacks for different ids interleave arbitrarily. The
// telemetry hub is the canonical implementation.
type Observer interface {
	RunEnqueued(id uint64, key Key, label string)
	RunStarted(id uint64)
	RunProgressed(id uint64, p Progress)
	RunFinished(id uint64, p Provenance, err error)
}

// Tally accumulates per-caller provenance counts: a harness that wants
// to know how *its* requests were served — while sharing a scheduler
// with everyone else — records each Do's Provenance into its own Tally.
// All methods are safe for concurrent use; a nil *Tally ignores Record,
// so threading one through is optional at every level.
type Tally struct {
	runs, hits, misses, joins           atomic.Uint64
	diskHits, peerHits, canceled, errs  atomic.Uint64
	queueWaitNs, simWallNs, leaseWaitNs atomic.Int64
}

// Record counts one served request.
func (t *Tally) Record(p Provenance, err error) {
	if t == nil {
		return
	}
	t.runs.Add(1)
	t.leaseWaitNs.Add(int64(p.LeaseWait))
	switch p.Outcome {
	case Hit:
		t.hits.Add(1)
	case Joined:
		t.joins.Add(1)
	case DiskHit:
		t.diskHits.Add(1)
	case PeerHit:
		t.peerHits.Add(1)
	case Canceled:
		t.canceled.Add(1)
	case Miss:
		t.misses.Add(1)
		t.queueWaitNs.Add(int64(p.QueueWait))
		t.simWallNs.Add(int64(p.SimWall))
	}
	if err != nil {
		t.errs.Add(1)
	}
}

// Stats snapshots the tally in the Stats shape (Workers and
// CacheEntries are zero: a tally sees one caller's slice of the
// scheduler, not the pool).
func (t *Tally) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Runs:      t.runs.Load(),
		Misses:    t.misses.Load(),
		Hits:      t.hits.Load(),
		Joins:     t.joins.Load(),
		DiskHits:  t.diskHits.Load(),
		PeerHits:  t.peerHits.Load(),
		Canceled:  t.canceled.Load(),
		Errors:    t.errs.Load(),
		QueueWait: time.Duration(t.queueWaitNs.Load()),
		SimWall:   time.Duration(t.simWallNs.Load()),
		LeaseWait: time.Duration(t.leaseWaitNs.Load()),
	}
}

// Tier is a persistent second-level result cache underneath the
// in-memory memo cache: Load is consulted on a memory miss before the
// run is queued for a worker, and Store is offered every successful
// cacheable result. Implementations must be safe for concurrent use,
// must treat stored values as immutable, and must never fail a run —
// a Tier that cannot serve or persist a value reports a miss / drops
// the write (and accounts for it itself). The store package's tiered
// blob store is the canonical implementation.
type Tier interface {
	// Load returns the value persisted under key, if a valid one exists.
	Load(key Key) (val any, ok bool)
	// Store persists a successful run's value under key (best effort).
	Store(key Key, val any)
}

// Locker coordinates cross-process singleflight over a shared persistent
// tier: before simulating a memory-and-disk miss, the scheduler claims
// the key's cross-process lease; losers poll the tier for the winner's
// result (Outcome PeerHit) instead of duplicating the simulation.
//
// TryLock must be non-blocking apart from local filesystem operations:
// ok=true hands the caller the exclusive right to simulate key (release
// MUST then be called exactly once, after the result has been offered to
// the tier); ok=false means another live process holds the lease right
// now. Staleness is the implementation's concern — TryLock takes over a
// crashed peer's lease internally and then reports ok=true. An
// implementation that cannot coordinate (no shared directory, degraded
// disk) must return a no-op release and ok=true: uncoordinated
// duplicate simulation is always safe, only wasteful, because tier blob
// writes are atomic and results are deterministic. The store package's
// blob store is the canonical implementation.
type Locker interface {
	TryLock(key Key) (release func(), ok bool)
}

// entry is one execution: in flight until done is closed, then an
// immutable (val, err) pair.
type entry struct {
	done chan struct{}
	val  any
	err  error
}

// Scheduler runs simulation closures through a bounded worker pool with
// content-keyed memoization and in-flight deduplication. All methods
// are safe for concurrent use.
type Scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast when a slot frees or the pool resizes

	workers int
	busy    int
	memo    bool

	cache    map[Key]*entry // completed, error-free runs
	inflight map[Key]*entry

	// LRU bookkeeping over cache: front = most recently used. cacheCap
	// 0 means unbounded (the pre-eviction behaviour).
	lru      *list.List
	lruPos   map[Key]*list.Element
	cacheCap int

	tier   Tier   // persistent second-level cache; nil when not attached
	locker Locker // cross-process singleflight; nil when not attached

	stats Stats
	seq   uint64 // next run id handed to the observer

	obs Observer // nil when no telemetry is attached

	// progressEvery is the minimum wall-clock gap between forwarded
	// progress frames per run, in nanoseconds (SetProgressInterval).
	progressEvery atomic.Int64

	// peerPoll is the interval, in nanoseconds, at which a run that lost
	// the cross-process lease re-probes the tier for the winner's result
	// (SetPeerPollInterval).
	peerPoll atomic.Int64

	reg       *metrics.Registry
	queueHist *metrics.SyncHistogram // per-miss queue wait, seconds
	simHist   *metrics.SyncHistogram // per-miss simulation wall, seconds
}

// latencyBounds are the queue-wait/sim-wall histogram bucket upper
// bounds in seconds: sub-millisecond dispatch up through multi-second
// full-scale simulations, so /metrics exposes tail latency rather than
// only the cumulative totals the gauges carry.
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// New returns a scheduler bounding concurrent simulations to workers
// (<= 0 means GOMAXPROCS), with memoization enabled.
func New(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		workers:  workers,
		memo:     true,
		cache:    make(map[Key]*entry),
		inflight: make(map[Key]*entry),
		lru:      list.New(),
		lruPos:   make(map[Key]*list.Element),
	}
	s.cond = sync.NewCond(&s.mu)
	s.progressEvery.Store(int64(DefaultProgressInterval))
	s.peerPoll.Store(int64(DefaultPeerPollInterval))
	s.reg = metrics.NewRegistry()
	snap := func(f func(Stats) float64) func() float64 {
		return func() float64 { return f(s.Stats()) }
	}
	s.reg.GaugeFunc("sched.workers", snap(func(st Stats) float64 { return float64(st.Workers) }))
	s.reg.GaugeFunc("sched.cache_entries", snap(func(st Stats) float64 { return float64(st.CacheEntries) }))
	s.reg.GaugeFunc("sched.runs", snap(func(st Stats) float64 { return float64(st.Runs) }))
	s.reg.GaugeFunc("sched.misses", snap(func(st Stats) float64 { return float64(st.Misses) }))
	s.reg.GaugeFunc("sched.hits", snap(func(st Stats) float64 { return float64(st.Hits) }))
	s.reg.GaugeFunc("sched.joins", snap(func(st Stats) float64 { return float64(st.Joins) }))
	s.reg.GaugeFunc("sched.disk_hits", snap(func(st Stats) float64 { return float64(st.DiskHits) }))
	s.reg.GaugeFunc("sched.peer_hits", snap(func(st Stats) float64 { return float64(st.PeerHits) }))
	s.reg.GaugeFunc("sched.canceled", snap(func(st Stats) float64 { return float64(st.Canceled) }))
	s.reg.GaugeFunc("sched.evictions", snap(func(st Stats) float64 { return float64(st.Evictions) }))
	s.reg.GaugeFunc("sched.errors", snap(func(st Stats) float64 { return float64(st.Errors) }))
	s.reg.GaugeFunc("sched.queue_wait_ms", snap(func(st Stats) float64 { return float64(st.QueueWait) / float64(time.Millisecond) }))
	s.reg.GaugeFunc("sched.sim_wall_ms", snap(func(st Stats) float64 { return float64(st.SimWall) / float64(time.Millisecond) }))
	s.reg.GaugeFunc("sched.lease_wait_ms", snap(func(st Stats) float64 { return float64(st.LeaseWait) / float64(time.Millisecond) }))
	s.reg.GaugeFunc("sched.hit_rate", snap(func(st Stats) float64 {
		if st.Runs == 0 {
			return 0
		}
		return float64(st.Hits+st.Joins+st.DiskHits+st.PeerHits) / float64(st.Runs)
	}))
	s.queueHist = s.reg.SyncHistogram("sched.queue_wait_seconds", latencyBounds)
	s.simHist = s.reg.SyncHistogram("sched.sim_wall_seconds", latencyBounds)
	return s
}

// SetObserver attaches (or, with nil, detaches) a run lifecycle
// observer. Attach before submitting work: runs already in flight do
// not retroactively announce themselves.
func (s *Scheduler) SetObserver(o Observer) {
	s.mu.Lock()
	s.obs = o
	s.mu.Unlock()
}

// Observed reports whether a lifecycle observer is attached. Callers
// use it to skip progress-only work (instruction-budget computation,
// hook installation) when nobody is watching.
func (s *Scheduler) Observed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obs != nil
}

// SetTier attaches (or, with nil, detaches) the persistent result tier.
// Attach before submitting work; values already cached in memory are
// not retroactively persisted. A tier that also implements Locker is
// attached as the cross-process lease coordinator in the same call, so
// N processes sharing one store directory never duplicate a simulation
// — SetLocker afterwards overrides that default.
func (s *Scheduler) SetTier(t Tier) {
	s.mu.Lock()
	s.tier = t
	if l, ok := t.(Locker); ok {
		s.locker = l
	} else {
		s.locker = nil
	}
	s.mu.Unlock()
}

// SetLocker attaches (or, with nil, detaches) the cross-process lease
// coordinator, overriding the one SetTier derived from the tier.
func (s *Scheduler) SetLocker(l Locker) {
	s.mu.Lock()
	s.locker = l
	s.mu.Unlock()
}

// DefaultPeerPollInterval is how often a run that lost the
// cross-process lease re-probes the tier for the winner's result. Short
// enough that a peer hit adds little latency over the peer's own
// simulation wall; long enough that a fleet of waiters does not hammer
// the shared directory.
const DefaultPeerPollInterval = 25 * time.Millisecond

// SetPeerPollInterval tunes the lease-wait re-probe period (d <= 0
// restores the default). Tests shorten it.
func (s *Scheduler) SetPeerPollInterval(d time.Duration) {
	if d <= 0 {
		d = DefaultPeerPollInterval
	}
	s.peerPoll.Store(int64(d))
}

// SetCacheCap bounds the in-memory memo cache to n completed runs,
// evicting least-recently-used entries beyond it (they remain
// retrievable from the persistent tier, if one is attached). n <= 0
// removes the bound.
func (s *Scheduler) SetCacheCap(n int) {
	s.mu.Lock()
	s.cacheCap = n
	s.evictOver()
	s.mu.Unlock()
}

// cacheInsert stores a completed entry and applies the LRU bound.
// Callers hold s.mu.
func (s *Scheduler) cacheInsert(key Key, e *entry) {
	if el, ok := s.lruPos[key]; ok {
		s.lru.MoveToFront(el)
		s.cache[key] = e
		return
	}
	s.cache[key] = e
	s.lruPos[key] = s.lru.PushFront(key)
	s.evictOver()
}

// cacheTouch marks key most recently used. Callers hold s.mu.
func (s *Scheduler) cacheTouch(key Key) {
	if el, ok := s.lruPos[key]; ok {
		s.lru.MoveToFront(el)
	}
}

// evictOver drops least-recently-used cache entries beyond cacheCap.
// Callers hold s.mu.
func (s *Scheduler) evictOver() {
	if s.cacheCap <= 0 {
		return
	}
	for len(s.cache) > s.cacheCap {
		el := s.lru.Back()
		if el == nil {
			return
		}
		key := el.Value.(Key)
		s.lru.Remove(el)
		delete(s.lruPos, key)
		delete(s.cache, key)
		s.stats.Evictions++
	}
}

var (
	globalOnce sync.Once
	global     *Scheduler
)

// Global returns the process-global scheduler shared by every
// experiment (created on first use, sized to GOMAXPROCS).
func Global() *Scheduler {
	globalOnce.Do(func() { global = New(0) })
	return global
}

// SetWorkers resizes the pool bound (<= 0 means GOMAXPROCS). Shrinking
// does not interrupt running simulations; the pool drains down to the
// new bound as they finish.
func (s *Scheduler) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s.mu.Lock()
	s.workers = n
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Workers returns the current pool bound.
func (s *Scheduler) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

// DisableMemo turns off the completed-run cache and in-flight
// deduplication: every Do executes its function (still through the
// bounded pool). Benchmarks use this to measure the unmemoized
// baseline.
func (s *Scheduler) DisableMemo() {
	s.mu.Lock()
	s.memo = false
	s.mu.Unlock()
}

// Stats snapshots the cumulative counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Workers = s.workers
	st.CacheEntries = len(s.cache)
	return st
}

// Metrics returns the scheduler's registry (sched.runs, sched.hits,
// sched.misses, sched.joins, sched.queue_wait_ms, the per-run
// sched.queue_wait_seconds / sched.sim_wall_seconds histograms, ...)
// for interval sampling and export alongside the simulator's other
// series. Every instrument in it is safe to read while runs are in
// flight — the gauges snapshot under the scheduler lock and the
// histograms are SyncHistograms — so Read (Prometheus exposition) may
// be called from a serving goroutine at any time; Snapshot advances
// interval state and should keep a single driver.
func (s *Scheduler) Metrics() *metrics.Registry { return s.reg }

// Do runs fn through the worker pool, deduplicating and memoizing by
// key when cacheable is true. It is DoCtx without a deadline: the call
// blocks until a result is available.
func (s *Scheduler) Do(key Key, label string, cacheable bool, fn func() (any, error)) (any, Provenance, error) {
	return s.DoCtx(context.Background(), key, label, cacheable, fn)
}

// DoCtx runs fn through the worker pool, deduplicating and memoizing by
// key when cacheable is true. The returned value is shared by every
// caller with the same key and must be treated as immutable. Errors
// propagate to all joined callers but are never cached — a later
// request with the same key retries. label is a short human-readable
// description ("sim/qsort/baseline") carried to the observer and shown
// in telemetry; it has no effect on scheduling or caching.
//
// ctx carries the request's deadline and cancellation: a request whose
// context expires while it waits for a worker slot, or while it is
// joined to an in-flight execution, returns ctx's error with Outcome
// Canceled instead of blocking forever. Cancellation of a joiner never
// disturbs the leader — the one execution keeps running and its result
// still lands in the cache. A leader canceled while queued resolves its
// entry with the cancellation error, which propagates to any joiners
// (a later request with the same key retries). fn itself is not
// interrupted once running; closures wanting cooperative abort capture
// ctx themselves (the pipeline's SetInterrupt hook is the simulator's
// path).
//
// fn must not call Do on the same scheduler (a saturated pool of
// parent runs waiting on child runs would deadlock).
func (s *Scheduler) DoCtx(ctx context.Context, key Key, label string, cacheable bool, fn func() (any, error)) (any, Provenance, error) {
	return s.DoProgress(ctx, key, label, cacheable, 0, nil, func(ProgressFunc) (any, error) { return fn() })
}

// DoProgress is DoCtx for runs that can report live progress. fn
// receives a report function to call with in-flight Progress snapshots;
// the scheduler stamps each forwarded frame with the wall-clock rate
// and an ETA derived from target (the run's known dynamic-instruction
// budget; 0 = unknown, frames then carry no ETA), throttles non-final
// frames to one per SetProgressInterval, and fans the result out to the
// attached Observer (RunProgressed) and to onProgress. Both are
// optional; when neither is attached fn receives a nil report and the
// call is exactly DoCtx — callers guard their hook installation on
// report != nil, so a silent run pays nothing.
//
// Progress frames are leader-only: hits, disk hits, and joiners resolve
// without frames (their provenance says why). onProgress runs on the
// simulating goroutine and must return quickly.
func (s *Scheduler) DoProgress(ctx context.Context, key Key, label string, cacheable bool, target uint64, onProgress ProgressFunc, fn func(report ProgressFunc) (any, error)) (any, Provenance, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		// Dead on arrival: account for the request, touch nothing else.
		s.mu.Lock()
		s.stats.Runs++
		s.stats.Canceled++
		s.seq++
		id := s.seq
		obs := s.obs
		s.mu.Unlock()
		p := Provenance{Outcome: Canceled, Key: key}
		if obs != nil {
			obs.RunEnqueued(id, key, label)
			obs.RunFinished(id, p, err)
		}
		return nil, p, err
	}
	s.mu.Lock()
	s.stats.Runs++
	s.seq++
	id := s.seq
	obs := s.obs
	cacheable = cacheable && s.memo
	if cacheable {
		if e, ok := s.cache[key]; ok {
			s.stats.Hits++
			s.cacheTouch(key)
			s.mu.Unlock()
			p := Provenance{Outcome: Hit, Key: key}
			if obs != nil {
				obs.RunEnqueued(id, key, label)
				obs.RunFinished(id, p, nil)
			}
			return e.val, p, nil
		}
		if e, ok := s.inflight[key]; ok {
			s.stats.Joins++
			s.mu.Unlock()
			if obs != nil {
				obs.RunEnqueued(id, key, label)
			}
			select {
			case <-e.done:
				p := Provenance{Outcome: Joined, Key: key}
				if obs != nil {
					obs.RunFinished(id, p, e.err)
				}
				return e.val, p, e.err
			case <-ctx.Done():
				// Detach: the leader keeps running and will still
				// populate the cache; only this caller gives up.
				err := fmt.Errorf("sched: abandoned joined run %s: %w", key.Short(), ctx.Err())
				s.mu.Lock()
				s.stats.Canceled++
				s.mu.Unlock()
				p := Provenance{Outcome: Canceled, Key: key}
				if obs != nil {
					obs.RunFinished(id, p, err)
				}
				return nil, p, err
			}
		}
	}
	e := &entry{done: make(chan struct{})}
	if cacheable {
		s.inflight[key] = e
	}
	tier := s.tier
	locker := s.locker
	// Announce before the tier probe and the slot wait so telemetry sees
	// the run queued, not just running. The in-flight entry is already
	// registered, so dedup keeps working while the lock is dropped.
	s.mu.Unlock()
	if obs != nil {
		obs.RunEnqueued(id, key, label)
	}

	// Persistent-tier probe: serving a previously computed run needs no
	// worker slot. A hit is promoted into the memory cache so repeats
	// stay cheap even after the blob ages out of the tier's own memory.
	if cacheable && tier != nil {
		if v, ok := tier.Load(key); ok {
			e.val = v
			s.mu.Lock()
			delete(s.inflight, key)
			s.cacheInsert(key, e)
			s.stats.DiskHits++
			s.mu.Unlock()
			close(e.done)
			p := Provenance{Outcome: DiskHit, Key: key}
			if obs != nil {
				obs.RunFinished(id, p, nil)
			}
			return v, p, nil
		}
	}

	// Cross-process singleflight: claim the key's lease before taking a
	// worker slot. Losing means a live peer process is simulating this
	// key right now — wait for its blob to land in the shared tier (the
	// cross-process analogue of joining an in-flight run) instead of
	// duplicating the work. A peer that crashes mid-simulation stops
	// heartbeating; TryLock takes its stale lease over internally and
	// this call proceeds as an ordinary miss.
	var release func() // non-nil once the lease is held
	var leaseWait time.Duration
	if cacheable && locker != nil {
		leaseStart := time.Now()
		poll := time.Duration(s.peerPoll.Load())
		for {
			if r, ok := locker.TryLock(key); ok {
				release = r
				leaseWait = time.Since(leaseStart)
				break
			}
			select {
			case <-ctx.Done():
				// Same contract as cancellation while queued: resolve the
				// entry with the error so in-process joiners unblock and a
				// later request retries.
				err := fmt.Errorf("sched: run %s canceled waiting on a peer's lease: %w", key.Short(), ctx.Err())
				s.mu.Lock()
				s.stats.Canceled++
				s.stats.LeaseWait += time.Since(leaseStart)
				delete(s.inflight, key)
				e.err = err
				s.mu.Unlock()
				close(e.done)
				p := Provenance{Outcome: Canceled, Key: key, LeaseWait: time.Since(leaseStart)}
				if obs != nil {
					obs.RunFinished(id, p, err)
				}
				return nil, p, err
			case <-time.After(poll):
			}
			if tier != nil {
				if v, ok := tier.Load(key); ok {
					// The peer finished and its blob verified: serve it.
					leaseWait = time.Since(leaseStart)
					e.val = v
					s.mu.Lock()
					delete(s.inflight, key)
					s.cacheInsert(key, e)
					s.stats.PeerHits++
					s.stats.LeaseWait += leaseWait
					s.mu.Unlock()
					close(e.done)
					p := Provenance{Outcome: PeerHit, Key: key, LeaseWait: leaseWait}
					if obs != nil {
						obs.RunFinished(id, p, nil)
					}
					return v, p, nil
				}
			}
			// No blob yet: either the peer is still simulating (its lease
			// is fresh — TryLock keeps failing) or it died or errored
			// (lease gone or stale — TryLock succeeds and this process
			// simulates).
		}
	}

	if done := ctx.Done(); done != nil {
		// The pool wait below sleeps on a sync.Cond; wake it when the
		// context expires so the cancellation check runs.
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
	}
	s.mu.Lock()
	for s.busy >= s.workers && ctx.Err() == nil {
		s.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		// Canceled while queued: resolve the entry with the error so
		// joiners unblock (they see the error and may retry later).
		s.stats.Canceled++
		if cacheable {
			delete(s.inflight, key)
		}
		e.err = fmt.Errorf("sched: run %s canceled while queued: %w", key.Short(), err)
		s.mu.Unlock()
		close(e.done)
		if release != nil {
			// Nothing was stored; dropping the lease lets a peer (or a
			// retry here) claim the key and simulate it.
			release()
		}
		p := Provenance{Outcome: Canceled, Key: key, LeaseWait: leaseWait}
		if obs != nil {
			obs.RunFinished(id, p, e.err)
		}
		return nil, p, e.err
	}
	s.busy++
	s.stats.Misses++
	s.stats.LeaseWait += leaseWait
	queueWait := time.Since(start)
	s.stats.QueueWait += queueWait
	s.mu.Unlock()
	s.queueHist.Observe(queueWait.Seconds())
	if obs != nil {
		obs.RunStarted(id)
	}

	simStart := time.Now()
	var report ProgressFunc
	if obs != nil || onProgress != nil {
		report = s.reporter(id, target, obs, onProgress, simStart)
	}
	e.val, e.err = fn(report)
	simWall := time.Since(simStart)
	s.simHist.Observe(simWall.Seconds())

	s.mu.Lock()
	s.busy--
	s.stats.SimWall += simWall
	if e.err != nil {
		s.stats.Errors++
	}
	if cacheable {
		delete(s.inflight, key)
		if e.err == nil {
			s.cacheInsert(key, e)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	close(e.done)
	if cacheable && e.err == nil && tier != nil {
		// Persist outside the lock; the tier absorbs its own failures.
		tier.Store(key, e.val)
	}
	if release != nil {
		// Release only after the result was offered to the tier: a lease
		// waiter that sees the lease vanish must find the blob (or learn,
		// by winning the lease, that it has to simulate — the store path
		// failed or the run errored).
		release()
	}
	p := Provenance{Outcome: Miss, Key: key, QueueWait: queueWait, SimWall: simWall, LeaseWait: leaseWait}
	if obs != nil {
		obs.RunFinished(id, p, e.err)
	}
	return e.val, p, e.err
}

// ForEach invokes fn(i) for every i in [0, n) on its own goroutine and
// returns the lowest-index error, if any. It imposes no concurrency
// bound of its own — callbacks submit their work through a scheduler,
// whose pool is the bound. This is the experiments' fan-out primitive;
// results land in caller-owned slices indexed by i, so output order is
// deterministic regardless of completion order.
func ForEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
