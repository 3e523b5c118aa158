package metrics

// Sample is one interval snapshot: the cycle it was taken at and one
// value per registered series, in registry order.
type Sample struct {
	Cycle  uint64
	Values []float64
}

// TimeSeries is an ordered set of samples plus the series names that
// index each sample's Values.
type TimeSeries struct {
	Names   []string
	Samples []Sample
	// Evicted counts samples pushed out of a bounded ring (oldest
	// first); Samples then covers only the tail of the run.
	Evicted uint64
}

// Index returns the Values position of name, or -1.
func (ts TimeSeries) Index(name string) int {
	for i, n := range ts.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Column extracts one series by name across all samples (nil if the
// name is unknown).
func (ts TimeSeries) Column(name string) []float64 {
	idx := ts.Index(name)
	if idx < 0 {
		return nil
	}
	out := make([]float64, len(ts.Samples))
	for i, s := range ts.Samples {
		out[i] = s.Values[idx]
	}
	return out
}

// Last returns the final sample (false when empty).
func (ts TimeSeries) Last() (Sample, bool) {
	if len(ts.Samples) == 0 {
		return Sample{}, false
	}
	return ts.Samples[len(ts.Samples)-1], true
}

// Sampler snapshots a registry every Interval cycles into a time-series
// ring. Tick is cheap on non-sampling cycles (one modulo); sampling
// cycles allocate one Values slice.
type Sampler struct {
	reg      *Registry
	interval uint64

	cap     int // max retained samples; 0 = unbounded
	ring    []Sample
	head    int // oldest element when the ring is full
	full    bool
	evicted uint64

	lastCycle uint64
	sampled   bool
}

// DefaultInterval is the sampling interval used when none is given.
const DefaultInterval = 10_000

// NewSampler builds a sampler over reg that samples every interval
// cycles (<= 0 uses DefaultInterval). The ring is unbounded until
// SetCap.
func NewSampler(reg *Registry, interval uint64) *Sampler {
	if interval == 0 {
		interval = DefaultInterval
	}
	return &Sampler{reg: reg, interval: interval}
}

// Interval returns the sampling interval in cycles.
func (s *Sampler) Interval() uint64 { return s.interval }

// SetCap bounds the ring to the most recent n samples (0 restores
// unbounded growth). It must be called before the first Tick.
func (s *Sampler) SetCap(n int) {
	if len(s.ring) != 0 {
		panic("metrics: SetCap after sampling started")
	}
	s.cap = n
}

// Tick is called once per simulated cycle; it samples when cycle is a
// non-zero multiple of the interval.
func (s *Sampler) Tick(cycle uint64) {
	if cycle == 0 || cycle%s.interval != 0 {
		return
	}
	s.take(cycle)
}

// Final forces a closing sample at cycle (typically end of run) unless
// that cycle was already sampled, so the last sample always reconciles
// with end-of-run totals.
func (s *Sampler) Final(cycle uint64) {
	if s.sampled && s.lastCycle == cycle {
		return
	}
	s.take(cycle)
}

func (s *Sampler) take(cycle uint64) {
	sm := Sample{Cycle: cycle, Values: s.reg.Snapshot(make([]float64, 0, s.reg.Len()))}
	s.lastCycle, s.sampled = cycle, true
	if s.cap <= 0 {
		s.ring = append(s.ring, sm)
		return
	}
	if len(s.ring) < s.cap {
		s.ring = append(s.ring, sm)
		return
	}
	s.ring[s.head] = sm
	s.head = (s.head + 1) % s.cap
	s.full = true
	s.evicted++
}

// Len returns the number of retained samples.
func (s *Sampler) Len() int { return len(s.ring) }

// Series returns the retained samples oldest-first, with the registry's
// series names.
func (s *Sampler) Series() TimeSeries {
	ts := TimeSeries{Names: s.reg.Names(), Evicted: s.evicted}
	if !s.full {
		ts.Samples = append([]Sample(nil), s.ring...)
		return ts
	}
	ts.Samples = make([]Sample, 0, len(s.ring))
	ts.Samples = append(ts.Samples, s.ring[s.head:]...)
	ts.Samples = append(ts.Samples, s.ring[:s.head]...)
	return ts
}
