package oracle

// StreamAnalyzer measures partial value locality in a value *stream*
// (memory addresses or load/store data), rather than in a live-register
// snapshot: an element is covered if its high 64−D bits match one of the
// last Window elements. This backs the paper's §6 observation that
// "both addresses and data have considerable partial value locality"
// exploitable in the memory hierarchy.
type StreamAnalyzer struct {
	// D is the number of low-order bits ignored by the similarity
	// relation; Window is how many recent elements are searched.
	D      int
	Window int

	ring   []uint64
	pos    int
	counts StreamCounts
}

// StreamCounts is a stream analyzer's accumulation as a plain value:
// elements observed and elements covered by a recent similar one.
type StreamCounts struct {
	Total, Covered uint64
}

// Merge folds o's counts into c. Window contents are not counts, so
// per-workload analyzers are merged at reporting time.
func (c *StreamCounts) Merge(o StreamCounts) {
	c.Total += o.Total
	c.Covered += o.Covered
}

// Coverage returns the fraction of elements whose high bits matched a
// recent element.
func (c StreamCounts) Coverage() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Covered) / float64(c.Total)
}

// MarshalBinary encodes c as its fixed-width fields in declaration
// order, so gob carries StreamCounts as one opaque value.
func (c StreamCounts) MarshalBinary() ([]byte, error) { return marshalFixed(c) }

// UnmarshalBinary decodes what MarshalBinary encoded.
func (c *StreamCounts) UnmarshalBinary(b []byte) error { return unmarshalFixed(b, c) }

// NewStreamAnalyzer returns an analyzer for (64−d)-similarity over a
// sliding window of the given size.
func NewStreamAnalyzer(d, window int) *StreamAnalyzer {
	if window <= 0 {
		window = 64
	}
	return &StreamAnalyzer{D: d, Window: window, ring: make([]uint64, 0, window)}
}

// Note records one stream element.
func (s *StreamAnalyzer) Note(v uint64) {
	key := v >> uint(s.D)
	s.counts.Total++
	for _, k := range s.ring {
		if k == key {
			s.counts.Covered++
			break
		}
	}
	if len(s.ring) < s.Window {
		s.ring = append(s.ring, key)
		return
	}
	s.ring[s.pos] = key
	s.pos = (s.pos + 1) % s.Window
}

// Total returns the number of elements observed.
func (s *StreamAnalyzer) Total() uint64 { return s.counts.Total }

// Counts returns a copy of the accumulation.
func (s *StreamAnalyzer) Counts() StreamCounts { return s.counts }

// Coverage returns the fraction of elements whose high bits matched a
// recent element.
func (s *StreamAnalyzer) Coverage() float64 { return s.counts.Coverage() }
