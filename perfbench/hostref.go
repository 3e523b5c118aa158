package main

import (
	"time"
)

// Host-speed adjustment. The benchmark runs on shared machines whose
// speed drifts by tens of percent over minutes, for every phase at once.
// Each run therefore also times a fixed CPU loop that shares no code with
// the simulator, at quiet points between phases, and scales its
// end-to-end times by refNominalMs / (the run's median loop time): a
// run on a host that is 20% slow throughout reports what it would have
// on the nominal host. A change to the simulator leaves the loop alone,
// so it still moves the adjusted metrics in full. Raw values are kept in
// the result file and printed beside the adjusted ones.

// refNominalMs is the loop's time on the 2-vCPU Xeon host the bounds
// were set on, in a quiet period.
const refNominalMs = 11.0

// refSink keeps the loop's result alive.
var refSink uint64

// hostRef times the reference loop five times and returns the median,
// in milliseconds.
func hostRef() float64 {
	xs := make([]float64, 5)
	for i := range xs {
		t0 := time.Now()
		var table [1 << 14]uint64
		h := uint64(1)
		for j := 0; j < 1_000_000; j++ {
			h = h*6364136223846793005 + 1442695040888963407
			k := h >> 50
			if table[k]&1 == 0 {
				table[k] += h
			} else {
				table[k] ^= h >> 3
			}
		}
		refSink += table[7] + h
		xs[i] = float64(time.Since(t0)) / 1e6
	}
	return median(xs)
}

// hostAdjust returns the end-to-end metrics of raw scaled to the nominal
// host, and the run's slowdown factor (median loop time over nominal).
// Memory and per-layer metrics are left as measured.
func hostAdjust(raw map[string]sample, refMs []float64) (map[string]sample, float64) {
	f := median(refMs) / refNominalMs
	out := map[string]sample{}
	for name, s := range raw {
		switch s.Unit {
		case "s", "ms":
			if isEndToEnd(name) {
				s.Value /= f
			}
		case "inst/s", "1/s":
			if isEndToEnd(name) {
				s.Value *= f
			}
		}
		out[name] = s
	}
	return out, f
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return true
		}
	}
	return false
}
