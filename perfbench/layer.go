package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"carf/internal/core"
	"carf/internal/harden"
	"carf/internal/metrics"
	"carf/internal/regfile"
	"carf/internal/sched"
)

// This file holds the traced run's instruments. Each one measures a
// layer from outside, through the interface the layer above calls it
// by, and forwards every optional interface the caller type-asserts so
// that a traced run simulates exactly what an untraced one does.

// modelStats accumulates one run's register-file model activity. Every
// call is counted; one call in 16, chosen by a private LCG so that the
// choice cannot alias with the pipeline's per-cycle call pattern, is
// timed, and the total is extrapolated from the timed ones.
type modelStats struct {
	rng       uint64
	calls     uint64
	timed     uint64
	timedNs   int64
	tryWrites uint64
	tryFails  uint64
}

// clockCost is the calibrated cost of timing an empty region the way
// the wrappers time a call; it is taken off every timed call so that
// the timer does not bill its own cost to the model.
var clockCost = calibrateClock()

func calibrateClock() time.Duration {
	xs := make([]float64, 4096)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs))
}

// sample counts a call and reports whether to time it.
func (s *modelStats) sample() bool {
	s.calls++
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	return s.rng>>60 == 0
}

func (s *modelStats) done(t0 time.Time) {
	s.timed++
	s.timedNs += int64(time.Since(t0) - clockCost)
}

// estimatedNs extrapolates the timed calls to all calls.
func (s *modelStats) estimatedNs() float64 {
	if s.timed == 0 {
		return 0
	}
	return float64(s.timedNs) / float64(s.timed) * float64(s.calls)
}

// timedModel wraps a conventional file (regfile.Conventional): the
// regfile.Model methods plus the optional interfaces that type
// implements (WriteReporter, FaultReporter, Checker, RegisterMetrics).
type timedModel struct {
	regfile.Model
	st modelStats
}

// timedCarf wraps the content-aware file (core.File), which
// additionally implements pipeline.Classifier, SampleLiveLong and
// harden.Injector.
type timedCarf struct {
	*timedModel
	file *core.File
}

// wrapModel returns the timing wrapper for m and the stats it fills.
func wrapModel(m regfile.Model) (regfile.Model, *modelStats, error) {
	switch f := m.(type) {
	case *core.File:
		tm := &timedModel{Model: f}
		return &timedCarf{timedModel: tm, file: f}, &tm.st, nil
	case *regfile.Conventional:
		tm := &timedModel{Model: f}
		return tm, &tm.st, nil
	}
	return nil, nil, fmt.Errorf("no timing wrapper for register file model %T", m)
}

func (m *timedModel) Alloc() (int, bool) {
	if m.st.sample() {
		t0 := time.Now()
		tag, ok := m.Model.Alloc()
		m.st.done(t0)
		return tag, ok
	}
	return m.Model.Alloc()
}

func (m *timedModel) Free(tag int) {
	if m.st.sample() {
		t0 := time.Now()
		m.Model.Free(tag)
		m.st.done(t0)
		return
	}
	m.Model.Free(tag)
}

func (m *timedModel) Read(tag int) regfile.ValueType {
	if m.st.sample() {
		t0 := time.Now()
		v := m.Model.Read(tag)
		m.st.done(t0)
		return v
	}
	return m.Model.Read(tag)
}

func (m *timedModel) TryWrite(tag int, value uint64) bool {
	m.st.tryWrites++
	var ok bool
	if m.st.sample() {
		t0 := time.Now()
		ok = m.Model.TryWrite(tag, value)
		m.st.done(t0)
	} else {
		ok = m.Model.TryWrite(tag, value)
	}
	if !ok {
		m.st.tryFails++
	}
	return ok
}

func (m *timedModel) ForceWrite(tag int, value uint64) {
	if m.st.sample() {
		t0 := time.Now()
		m.Model.ForceWrite(tag, value)
		m.st.done(t0)
		return
	}
	m.Model.ForceWrite(tag, value)
}

func (m *timedModel) TypeOf(tag int) regfile.ValueType {
	if m.st.sample() {
		t0 := time.Now()
		v := m.Model.TypeOf(tag)
		m.st.done(t0)
		return v
	}
	return m.Model.TypeOf(tag)
}

func (m *timedModel) ReadValue(tag int) (uint64, bool) {
	if m.st.sample() {
		t0 := time.Now()
		v, ok := m.Model.ReadValue(tag)
		m.st.done(t0)
		return v, ok
	}
	return m.Model.ReadValue(tag)
}

func (m *timedModel) NoteAddress(addr uint64) {
	if m.st.sample() {
		t0 := time.Now()
		m.Model.NoteAddress(addr)
		m.st.done(t0)
		return
	}
	m.Model.NoteAddress(addr)
}

func (m *timedModel) OnRobInterval(archTags []int) {
	if m.st.sample() {
		t0 := time.Now()
		m.Model.OnRobInterval(archTags)
		m.st.done(t0)
		return
	}
	m.Model.OnRobInterval(archTags)
}

func (m *timedModel) LongStall(threshold int) bool {
	if m.st.sample() {
		t0 := time.Now()
		v := m.Model.LongStall(threshold)
		m.st.done(t0)
		return v
	}
	return m.Model.LongStall(threshold)
}

// Optional interfaces of both wrapped types. Set-up and sweep calls are
// forwarded untimed.

func (m *timedModel) SetWriteReporter(fn regfile.WriteFunc) {
	m.Model.(regfile.WriteReporter).SetWriteReporter(fn)
}

func (m *timedModel) Faults() []string { return m.Model.(harden.FaultReporter).Faults() }

func (m *timedModel) CheckInvariants() []harden.Violation {
	return m.Model.(harden.Checker).CheckInvariants()
}

func (m *timedModel) RegisterMetrics(reg *metrics.Registry) {
	m.Model.(interface{ RegisterMetrics(*metrics.Registry) }).RegisterMetrics(reg)
}

// Optional interfaces of the content-aware file only.

func (m *timedCarf) Classify(v uint64) regfile.ValueType {
	if m.st.sample() {
		t0 := time.Now()
		t := m.file.Classify(v)
		m.st.done(t0)
		return t
	}
	return m.file.Classify(v)
}

func (m *timedCarf) SampleLiveLong() {
	if m.st.sample() {
		t0 := time.Now()
		m.file.SampleLiveLong()
		m.st.done(t0)
		return
	}
	m.file.SampleLiveLong()
}

func (m *timedCarf) Inject(f harden.Fault) (string, bool) { return m.file.Inject(f) }

// tierLocker is what store.Store offers the scheduler: the tier and,
// through the same value, the cross-process lease that SetTier wires.
type tierLocker interface {
	sched.Tier
	sched.Locker
}

// timedTier times every Load and Store of a persistent tier and
// forwards TryLock, so that SetTier still wires the store's leases.
type timedTier struct {
	inner tierLocker

	mu       sync.Mutex
	loads    []float64 // ms
	loadHits int
	puts     []float64 // ms
}

func (t *timedTier) Load(key sched.Key) (any, bool) {
	t0 := time.Now()
	v, ok := t.inner.Load(key)
	ms := msSince(t0)
	t.mu.Lock()
	t.loads = append(t.loads, ms)
	if ok {
		t.loadHits++
	}
	t.mu.Unlock()
	return v, ok
}

func (t *timedTier) Store(key sched.Key, val any) {
	t0 := time.Now()
	t.inner.Store(key, val)
	ms := msSince(t0)
	t.mu.Lock()
	t.puts = append(t.puts, ms)
	t.mu.Unlock()
}

func (t *timedTier) TryLock(key sched.Key) (func(), bool) { return t.inner.TryLock(key) }

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// schedObserver turns scheduler lifecycle callbacks into spans: one
// sched.run span per request, with sched.queue and sched.sim children
// for the requests that simulated.
type schedObserver struct {
	tr     *tracer
	parent int

	mu      sync.Mutex
	enq     map[uint64]time.Time
	started map[uint64]time.Time
	labels  map[uint64]string
}

func newSchedObserver(tr *tracer, parent int) *schedObserver {
	return &schedObserver{tr: tr, parent: parent,
		enq: map[uint64]time.Time{}, started: map[uint64]time.Time{}, labels: map[uint64]string{}}
}

func (o *schedObserver) RunEnqueued(id uint64, key sched.Key, label string) {
	o.mu.Lock()
	o.enq[id] = time.Now()
	o.labels[id] = label + "#" + key.Short()
	o.mu.Unlock()
}

func (o *schedObserver) RunStarted(id uint64) {
	o.mu.Lock()
	o.started[id] = time.Now()
	o.mu.Unlock()
}

func (o *schedObserver) RunProgressed(uint64, sched.Progress) {}

func (o *schedObserver) RunFinished(id uint64, p sched.Provenance, _ error) {
	end := time.Now()
	o.mu.Lock()
	enq, st, label := o.enq[id], o.started[id], o.labels[id]
	delete(o.enq, id)
	delete(o.started, id)
	delete(o.labels, id)
	o.mu.Unlock()
	run := o.tr.add("sched.run", o.parent, label, enq, end)
	if !st.IsZero() {
		o.tr.add("sched.queue", run, label, enq, st)
		o.tr.add("sched.sim", run, label, st, end)
	}
}

// span is one traced interval. Spans of one request share Trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a completed span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int, trace string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trace: trace,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int, trace string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, parent, trace, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (overlapping children count
// once; child time outside the parent is ignored).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}
