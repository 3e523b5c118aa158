package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. End-to-end metrics are
// measured with tracing off and carry the regression bound a later
// change is judged by; per-layer metrics come from the traced run and
// name the end-to-end metric they should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the median
	Moves  string  // per-layer only: the end-to-end metrics this layer should move
}

// endToEnd lists the metrics a user of the simulator sees. Every
// workload reports all of them: each workload runs the simulation loop,
// the study and the service on its own kernel class. Times and rates are
// reported scaled to the nominal host (see hostref.go). The bounds are
// the widest allowed: on the 2-vCPU shared host they were set on, ten
// runs of one build spread by up to 0.20 of the median (interquartile
// range) even after the host adjustment; peak RSS spreads by under 0.05.
var endToEnd = []metricDef{
	{Name: "carf_inst_per_s", Unit: "inst/s", Better: "higher", Bound: 0.25},     // simulated instructions per host second, content-aware file, through carf.RunCtx
	{Name: "baseline_inst_per_s", Unit: "inst/s", Better: "higher", Bound: 0.25}, // simulated instructions per host second, baseline file, through carf.RunCtx
	{Name: "study_cold_s", Unit: "s", Better: "lower", Bound: 0.25},              // wall time of every experiment on a fresh scheduler and empty store
	{Name: "study_warm_s", Unit: "s", Better: "lower", Bound: 0.25},              // wall time of every experiment on a fresh scheduler over the filled store
	{Name: "serve_hit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},         // carfserve POST to result body, job served from the memory cache
	{Name: "serve_disk_hit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},    // carfserve POST to result body, job served from the store by a restarted daemon
	{Name: "serve_miss_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},        // carfserve POST to result body, job that simulates
	{Name: "serve_jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},       // jobs completed per second by two closed-loop clients
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},              // peak resident set size of the benchmark process
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},                   // kernel builds, temp store, daemon start and warm-up jobs (median of repeats)
}

// perLayer lists the traced run's metrics. Every workload reports all
// of them.
var perLayer = []metricDef{
	{Name: "workload.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},                                                    // workload.ByName per kernel build
	{Name: "vm.ns_per_inst", Unit: "ns", Better: "lower", Moves: "carf_inst_per_s,baseline_inst_per_s"},                           // vm.Machine.Run on the same programs: the functional floor
	{Name: "pipeline.self_ns_per_inst", Unit: "ns", Better: "lower", Moves: "carf_inst_per_s,baseline_inst_per_s"},                // pipeline Run time minus register-file model time, per instruction
	{Name: "pipeline.ns_per_cycle", Unit: "ns", Better: "lower", Moves: "carf_inst_per_s,baseline_inst_per_s"},                    // pipeline self time per simulated cycle
	{Name: "regfile.ns_per_inst", Unit: "ns", Better: "lower", Moves: "carf_inst_per_s"},                                          // time inside regfile.Model calls per instruction, content-aware runs
	{Name: "regfile.baseline_ns_per_inst", Unit: "ns", Better: "lower", Moves: "baseline_inst_per_s"},                             // time inside regfile.Model calls per instruction, baseline runs
	{Name: "regfile.calls_per_inst", Unit: "count", Better: "lower", Moves: "carf_inst_per_s"},                                    // regfile.Model calls per instruction, content-aware runs
	{Name: "regfile.trywrite_fail_frac", Unit: "frac", Better: "lower", Moves: "carf_inst_per_s"},                                 // TryWrite calls refused (Recovery State retries) over all TryWrite calls
	{Name: "runtime.alloc_bytes_per_inst", Unit: "B", Better: "lower", Moves: "peak_rss_mb,carf_inst_per_s,baseline_inst_per_s"},  // heap bytes allocated per simulated instruction in the simulation loop
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower", Moves: "peak_rss_mb,carf_inst_per_s,baseline_inst_per_s"},        // GC CPU over total CPU during the simulation loop
	{Name: "pipeline.cycles_per_inst", Unit: "count", Better: "lower", Moves: "carf_inst_per_s,baseline_inst_per_s"},              // simulated cycles per instruction (repeats exactly)
	{Name: "pipeline.mispredicts_per_kinst", Unit: "count", Better: "lower", Moves: "carf_inst_per_s,baseline_inst_per_s"},        // simulated branch mispredicts per 1000 instructions (repeats exactly)
	{Name: "cache.l1d_misses_per_kinst", Unit: "count", Better: "lower", Moves: "carf_inst_per_s,baseline_inst_per_s"},            // simulated L1D misses per 1000 instructions (repeats exactly)
	{Name: "cache.l2_misses_per_kinst", Unit: "count", Better: "lower", Moves: "carf_inst_per_s,baseline_inst_per_s"},             // simulated L2 misses per 1000 instructions (repeats exactly)
	{Name: "core.long_write_frac", Unit: "frac", Better: "lower", Moves: "carf_inst_per_s"},                                       // content-aware writes stored in the Long file (repeats exactly)
	{Name: "experiments.render_ms", Unit: "ms", Better: "lower", Moves: "study_warm_s"},                                           // Result.Render over every experiment, warm pass
	{Name: "experiments.slowest_s", Unit: "s", Better: "lower", Moves: "study_cold_s"},                                            // longest single experiment in the cold pass (critical path with 2 jobs)
	{Name: "sched.cold.simulated", Unit: "count", Better: "lower", Moves: "study_cold_s"},                                         // simulations executed in the cold pass
	{Name: "sched.warm.simulated", Unit: "count", Better: "lower", Moves: "study_warm_s"},                                         // simulations executed in the warm pass
	{Name: "sched.reuse_frac", Unit: "frac", Better: "higher", Moves: "study_cold_s,study_warm_s"},                                // (hits + joins + disk hits) / runs over both passes
	{Name: "sched.queue_wait_s", Unit: "s", Better: "lower", Moves: "study_cold_s"},                                               // cumulative worker-slot wait in the cold pass
	{Name: "sched.sim_wall_s", Unit: "s", Better: "lower", Moves: "study_cold_s"},                                                 // cumulative simulation wall in the cold pass
	{Name: "sched.busy_frac", Unit: "frac", Better: "higher", Moves: "study_cold_s"},                                              // cold-pass simulation wall / (pass wall x workers)
	{Name: "store.put_ms_p50", Unit: "ms", Better: "lower", Moves: "study_cold_s"},                                                // sched.Tier Store call, cold pass
	{Name: "store.puts", Unit: "count", Better: "lower", Moves: "study_cold_s"},                                                   // sched.Tier Store calls, cold pass
	{Name: "store.load_ms_p50", Unit: "ms", Better: "lower", Moves: "study_warm_s"},                                               // sched.Tier Load call, warm pass
	{Name: "store.load_hit_frac", Unit: "frac", Better: "higher", Moves: "study_warm_s"},                                          // sched.Tier Load calls that found a blob, warm pass
	{Name: "store.quarantined", Unit: "count", Better: "lower", Moves: "study_warm_s"},                                            // corrupt blobs moved aside by the study stores (must be 0)
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower", Moves: "serve_hit_p50_ms,serve_disk_hit_p50_ms,serve_miss_p50_ms"}, // POST /api/v1/runs to 202
	{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower", Moves: "serve_miss_p50_ms,serve_jobs_per_s"},                        // job submitted to job started, from the job document
	{Name: "serve.hit_tail_ms", Unit: "ms", Better: "lower", Moves: "serve_hit_p50_ms"},                                           // memory-hit latency at the highest percentile with 10 samples beyond it
	{Name: "serve.disk_hit_tail_ms", Unit: "ms", Better: "lower", Moves: "serve_disk_hit_p50_ms"},                                 // disk-hit latency at the highest percentile with 10 samples beyond it
	{Name: "serve.miss_tail_ms", Unit: "ms", Better: "lower", Moves: "serve_miss_p50_ms"},                                         // miss latency at the highest percentile with 10 samples beyond it
	{Name: "serve.rejected", Unit: "count", Better: "lower", Moves: "serve_jobs_per_s"},                                           // 429/503 responses (also counted as failed operations)
	{Name: "serve.store_load_ms_p50", Unit: "ms", Better: "lower", Moves: "serve_disk_hit_p50_ms"},                                // sched.Tier Load call inside the restarted daemon
	{Name: "serve.store_put_ms_p50", Unit: "ms", Better: "lower", Moves: "serve_miss_p50_ms"},                                     // sched.Tier Store call inside the daemon
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: ""},                                                     // traced round wall / untraced round wall in the same run
}

// sample is one reported value with the number of observations behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Note carries extra context (the percentile a tail metric used).
	Note string `json:"note,omitempty"`
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder is the set of percentiles a tail metric may report.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of tailLadder that leaves
// at least 10 of n samples beyond it. ok is false when even the median
// leaves fewer than 10 (n < 20); the median is then returned.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 50, false
}

// tail reports xs at its tail percentile, noting which one and whether
// enough samples backed it.
func tail(xs []float64, unit string) sample {
	p, ok := tailPercentile(len(xs))
	note := fmt.Sprintf("p%g", p)
	if !ok {
		note += " (fewer than 10 samples beyond the median)"
	}
	return sample{Value: quantile(xs, p/100), Unit: unit, N: len(xs), Note: note}
}

// frac returns num/den, or 0 for an empty denominator.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runSeconds is the measurement time BENCHMARK.json asks of each run.
const runSeconds = 50

// manifest renders BENCHMARK.json from the registries above, so the
// file and the program cannot disagree.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}
