// Package oracle measures value locality in the live integer register
// file, reproducing the methodology behind Figures 1 and 2 of the paper:
// each sampled cycle, all live register values are grouped — by exact
// equality for the classic frequent-value distribution (Figure 1), or by
// their high-order 64−d bits for the (64−d)-similarity distribution
// (Figure 2) — the groups are ranked by population, and the populations
// are accumulated into rank buckets (group 1, group 2, groups 3–4,
// groups 5–8, groups 9–16, REST).
package oracle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// NumBuckets is the number of rank buckets in a distribution.
const NumBuckets = 6

// BucketLabels names the rank buckets, matching the figures' legends.
var BucketLabels = [NumBuckets]string{
	"Group 1", "Group 2", "Group 3..4", "Group 5..8", "Group 9..16", "REST",
}

// bucketOf maps a 1-based group rank to its bucket.
func bucketOf(rank int) int {
	switch {
	case rank <= 1:
		return 0
	case rank == 2:
		return 1
	case rank <= 4:
		return 2
	case rank <= 8:
		return 3
	case rank <= 16:
		return 4
	default:
		return 5
	}
}

// Analyzer accumulates a live-value distribution. D = 0 groups by exact
// value (Figure 1); D > 0 groups values whose high 64−D bits agree
// (Figure 2). Analyzer implements the pipeline's LiveSampler interface.
type Analyzer struct {
	// D is the number of low-order bits ignored when grouping.
	D int

	counts  Counts
	scratch map[uint64]int
}

// Counts is an analyzer's accumulation as a plain value: live values
// per rank bucket over every sampled cycle. It is what a distribution
// is computed from, and what a cached run keeps of its analyzers.
type Counts struct {
	Buckets [NumBuckets]uint64
	Total   uint64 // live values sampled
	Samples uint64 // cycles sampled
}

// Merge folds o's accumulation into c (used to aggregate across
// benchmarks).
func (c *Counts) Merge(o Counts) {
	for i := range c.Buckets {
		c.Buckets[i] += o.Buckets[i]
	}
	c.Total += o.Total
	c.Samples += o.Samples
}

// Distribution returns the fraction of live values in each rank bucket.
func (c Counts) Distribution() [NumBuckets]float64 {
	var out [NumBuckets]float64
	if c.Total == 0 {
		return out
	}
	for i, n := range c.Buckets {
		out[i] = float64(n) / float64(c.Total)
	}
	return out
}

// MarshalBinary encodes c as its fixed-width fields in declaration
// order, so gob carries Counts as one opaque value.
func (c Counts) MarshalBinary() ([]byte, error) { return marshalFixed(c) }

// UnmarshalBinary decodes what MarshalBinary encoded.
func (c *Counts) UnmarshalBinary(b []byte) error { return unmarshalFixed(b, c) }

// marshalFixed encodes a value of fixed-width fields little-endian.
func marshalFixed(v any) ([]byte, error) {
	var b bytes.Buffer
	err := binary.Write(&b, binary.LittleEndian, v)
	return b.Bytes(), err
}

// unmarshalFixed decodes what marshalFixed encoded into v, rejecting
// input of any other length.
func unmarshalFixed(b []byte, v any) error {
	if len(b) != binary.Size(v) {
		return fmt.Errorf("oracle: %d bytes, want %d", len(b), binary.Size(v))
	}
	return binary.Read(bytes.NewReader(b), binary.LittleEndian, v)
}

// NewAnalyzer returns an analyzer grouping values by their high 64−d
// bits (d = 0 for exact-value grouping).
func NewAnalyzer(d int) *Analyzer {
	return &Analyzer{D: d, scratch: make(map[uint64]int)}
}

// Sample accumulates one cycle's live register values.
func (a *Analyzer) Sample(values []uint64) {
	if len(values) == 0 {
		return
	}
	if a.scratch == nil {
		a.scratch = make(map[uint64]int)
	}
	groups := a.scratch
	for k := range groups {
		delete(groups, k)
	}
	for _, v := range values {
		groups[v>>uint(a.D)]++
	}
	sizes := make([]int, 0, len(groups))
	for _, n := range groups {
		sizes = append(sizes, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	for i, n := range sizes {
		a.counts.Buckets[bucketOf(i+1)] += uint64(n)
	}
	a.counts.Total += uint64(len(values))
	a.counts.Samples++
}

// Samples returns the number of accumulated cycles.
func (a *Analyzer) Samples() uint64 { return a.counts.Samples }

// Counts returns a copy of the accumulation.
func (a *Analyzer) Counts() Counts { return a.counts }

// Distribution returns the fraction of live values in each rank bucket.
func (a *Analyzer) Distribution() [NumBuckets]float64 { return a.counts.Distribution() }

// Fanout feeds one live-value stream to several analyzers (e.g. d = 0,
// 8, 12, 16 in a single simulation).
type Fanout []*Analyzer

// Sample implements the pipeline's LiveSampler.
func (f Fanout) Sample(values []uint64) {
	for _, a := range f {
		a.Sample(values)
	}
}
