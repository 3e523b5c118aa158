// Command perfbench is the repository benchmark: it measures the
// simulator end to end (closed-loop carf.RunCtx throughput, the cold
// and warm experiment study, carfserve latency on memory hits, disk
// hits and misses) and, in a separate traced run, layer by layer.
//
// Every workload runs the same three phases, interleaved in seeded
// order round after round until the run's time is spent: the
// simulation loop, the study, and the service. The workload picks the
// kernel class that the simulation loop runs and the service's jobs
// draw from. All inputs derive from -seed; every output is checked
// against carf.RunCtx or against values recorded in expected.json, and
// a mismatch fails the run. End-to-end times and rates are scaled to a
// nominal host speed measured by a reference loop (hostref.go); the raw
// values are printed beside them.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sim-stall --seed 1 --seconds 30 --trace 0
//	go run ./perfbench -workload sim-dense -seed 7 -seconds 30 -trace 1
//	go run ./perfbench -record perfbench/expected.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it print
// every metric with its unit and sample count, and the provenance; the
// same document, with spans in a traced run, is written under -work.
// Results compare only within one host and session.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"carf"
	"carf/internal/serve"
	"carf/internal/workload"
)

// bench is one run's state.
type bench struct {
	w       workloadDef
	seed    uint64
	seconds float64
	traced  bool
	work    string

	exp  expectations
	chk  checker
	hc   *http.Client
	refs map[serve.SubmitRequest]kernelDoc

	// End-to-end samples (untraced rounds).
	setupS                []float64
	simNs                 map[simOp][]float64 // untraced ns per instruction
	studyCold, studyWarm  []float64
	hitMs, diskMs, missMs []float64
	refMs                 []float64 // host reference loop, ms
	serveJobs             int
	serveWall             time.Duration

	// Traced rounds.
	sim         simLayer
	study       studyLayer
	srv         serveLayer
	plainWall   []float64 // untraced round walls in a traced run
	tracedWall  []float64
	tr          *tracer
	roundsTotal int
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wname   = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Uint64("seed", 1, "seed for run order and request mix")
		seconds = flag.Float64("seconds", 30, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		work    = flag.String("work", filepath.Join(".bench_build", "work"), "directory for temp stores and result files")
		record  = flag.String("record", "", "record expected outputs to this file and exit")
		mani    = flag.String("manifest", "", "write BENCHMARK.json to this file and exit")
	)
	flag.Parse()
	if *mani != "" {
		b, err := manifest()
		if err == nil {
			err = os.WriteFile(*mani, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *record != "" {
		if err := recordExpectations(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	exp, err := loadExpectations()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	prov := startProvenance(w.Name, *seed, *trace == 1)
	b := &bench{
		w: w, seed: *seed, seconds: *seconds, traced: *trace == 1,
		exp:   exp,
		hc:    &http.Client{Timeout: 2 * time.Minute},
		refs:  map[serve.SubmitRequest]kernelDoc{},
		simNs: map[simOp][]float64{},
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.work, err = os.MkdirTemp(*work, fmt.Sprintf("%s-seed%d-", w.Name, *seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)
	if b.traced {
		b.tr = newTracer()
	}

	if err := b.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	b.rounds()
	b.hc.CloseIdleConnections()

	raw := b.metrics()
	ms, factor := hostAdjust(raw, b.refMs)
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := ms[d.Name]; !ok {
			b.chk.op(fmt.Errorf("metric %s was not measured", d.Name))
		}
	}
	prov.finish()
	attempted, failed, errs := b.chk.counts()
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	correct := failed == 0 && attempted > 0
	b.printHuman(ms, raw, factor, prov, attempted, failed)
	if err := b.writeResult(filepath.Dir(b.work), ms, raw, factor, prov, correct, attempted, failed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write result:", err)
	}

	last := map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported(ms, b.traced)}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// setup builds the workload's kernels, opens a temp store, starts a
// daemon and runs the warm-up jobs, then tears it all down,
// setupRepeats times; setup_s is their median.
func (b *bench) setup() error {
	warm := serveSpecs(b.w.ServeKernel)[:warmupJobs]
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("setup-%d", i))
		runtime.GC()
		b.refMs = append(b.refMs, hostRef())
		t0 := time.Now()
		for _, k := range b.w.Kernels {
			for _, scale := range []float64{simScale, serveScale} {
				if _, err := workload.ByName(k, scale); err != nil {
					return err
				}
			}
		}
		d, err := startDaemon(dir, false)
		if err != nil {
			return err
		}
		res, _ := drive(b.hc, d.base, warm)
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		for _, r := range res {
			b.chk.op(b.verify(r, "miss"))
		}
		if err := d.stop(); err != nil {
			return err
		}
		os.RemoveAll(dir)
	}
	return nil
}

// rounds runs rounds until the measurement time is spent. A round
// starts only while half of the last round still fits. A traced run
// alternates untraced and traced rounds, starting untraced, so that the
// tracing overhead compares rounds from the same stretch of the run.
func (b *bench) rounds() {
	start := time.Now()
	var last time.Duration
	for r := 0; ; r++ {
		minRounds := 1
		if b.traced {
			minRounds = 2
		}
		if r >= minRounds && time.Since(start)+last/2 > time.Duration(b.seconds*float64(time.Second)) {
			return
		}
		rp := plan(b.w, b.seed, r)
		tr := b.tr
		if b.traced && r%2 == 0 {
			tr = nil
		}
		t0 := time.Now()
		rs := tr.open("round", 0, fmt.Sprint(r))
		for _, ph := range rp.Phases {
			runtime.GC()
			b.refMs = append(b.refMs, hostRef())
			switch ph {
			case "sim":
				b.simPhase(rp, tr, rs)
			case "study":
				b.studyPhase(rp, r, tr, rs)
			case "serve":
				b.servePhase(rp, r, tr, rs)
			}
		}
		tr.close(rs)
		last = time.Since(t0)
		b.roundsTotal++
		if b.traced {
			if tr == nil {
				b.plainWall = append(b.plainWall, last.Seconds())
			} else {
				b.tracedWall = append(b.tracedWall, last.Seconds())
			}
		}
	}
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%g", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// metrics computes every metric this run measured.
func (b *bench) metrics() map[string]sample {
	m := map[string]sample{}
	med := func(name, unit string, xs []float64) {
		if len(xs) > 0 {
			m[name] = sample{Value: median(xs), Unit: unit, N: len(xs)}
		}
	}
	one := func(name, unit string, v float64, n int) { m[name] = sample{Value: v, Unit: unit, N: n} }

	med("setup_s", "s", b.setupS)
	if rss, err := peakRSSMB(); err == nil {
		one("peak_rss_mb", "MB", rss, 1)
	} else {
		b.chk.op(fmt.Errorf("peak RSS: %w", err))
	}
	if !b.traced {
		for _, o := range []struct {
			name string
			org  carf.Organization
		}{{"carf_inst_per_s", carf.ContentAware}, {"baseline_inst_per_s", carf.Baseline}} {
			if v, n := instPerS(b.simNs, o.org); n > 0 {
				one(o.name, "inst/s", v, n)
			}
		}
		med("study_cold_s", "s", b.studyCold)
		med("study_warm_s", "s", b.studyWarm)
		med("serve_hit_p50_ms", "ms", b.hitMs)
		med("serve_disk_hit_p50_ms", "ms", b.diskMs)
		med("serve_miss_p50_ms", "ms", b.missMs)
		if b.serveJobs > 0 {
			one("serve_jobs_per_s", "1/s", float64(b.serveJobs)/b.serveWall.Seconds(), b.serveJobs)
		}
		return m
	}

	s := &b.sim
	med("workload.build_ms", "ms", s.buildMs)
	n := len(s.buildMs)
	rfNs := s.rfNs[0] + s.rfNs[1]
	one("vm.ns_per_inst", "ns", frac(s.vmNs, s.vmInst), n)
	one("pipeline.self_ns_per_inst", "ns", frac(s.pipeNs-rfNs, s.inst), n)
	one("pipeline.ns_per_cycle", "ns", frac(s.pipeNs-rfNs, s.cycles), n)
	one("regfile.ns_per_inst", "ns", frac(s.rfNs[1], s.rfInst[1]), n/2)
	one("regfile.baseline_ns_per_inst", "ns", frac(s.rfNs[0], s.rfInst[0]), n/2)
	one("regfile.calls_per_inst", "count", frac(s.rfCalls[1], s.rfInst[1]), n/2)
	one("regfile.trywrite_fail_frac", "frac", frac(s.tryFails, s.tryWrites), n)
	one("runtime.alloc_bytes_per_inst", "B", frac(s.allocBytes, s.inst), n)
	one("runtime.gc_cpu_frac", "frac", frac(s.gcCPU, s.allCPU), n)
	one("pipeline.cycles_per_inst", "count", frac(s.cycles, s.inst), n)
	one("pipeline.mispredicts_per_kinst", "count", 1000*frac(s.mispredicts, s.inst), n)
	one("cache.l1d_misses_per_kinst", "count", 1000*frac(s.l1d, s.inst), n)
	one("cache.l2_misses_per_kinst", "count", 1000*frac(s.l2, s.inst), n)
	one("core.long_write_frac", "frac", frac(s.longWrites, s.carfWrites), n/2)

	st := &b.study
	med("experiments.render_ms", "ms", st.renderMs)
	med("experiments.slowest_s", "s", st.slowestS)
	med("sched.cold.simulated", "count", st.coldSim)
	med("sched.warm.simulated", "count", st.warmSim)
	med("sched.reuse_frac", "frac", st.reuse)
	med("sched.queue_wait_s", "s", st.queueWaitS)
	med("sched.sim_wall_s", "s", st.simWallS)
	med("sched.busy_frac", "frac", st.busy)
	med("store.put_ms_p50", "ms", st.putMs)
	med("store.puts", "count", st.puts)
	med("store.load_ms_p50", "ms", st.loadMs)
	med("store.load_hit_frac", "frac", st.loadHitFrac)
	med("store.quarantined", "count", st.quarantine)

	sv := &b.srv
	med("serve.submit_ms_p50", "ms", sv.submitMs)
	med("serve.queue_ms_p50", "ms", sv.queueMs)
	m["serve.hit_tail_ms"] = tail(sv.hitMs, "ms")
	m["serve.disk_hit_tail_ms"] = tail(sv.diskMs, "ms")
	m["serve.miss_tail_ms"] = tail(sv.missMs, "ms")
	one("serve.rejected", "count", sv.rejected, len(sv.submitMs))
	med("serve.store_load_ms_p50", "ms", sv.storeLoadMs)
	med("serve.store_put_ms_p50", "ms", sv.storePutMs)

	if len(b.plainWall) > 0 && len(b.tracedWall) > 0 {
		one("trace.overhead_ratio", "ratio", median(b.tracedWall)/median(b.plainWall), len(b.tracedWall))
	}
	return m
}

// reported selects the metrics the last output line carries: every
// end-to-end metric untraced, every per-layer metric traced.
func reported(ms map[string]sample, traced bool) map[string]any {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := map[string]any{}
	for _, d := range defs {
		if s, ok := ms[d.Name]; ok {
			out[d.Name] = map[string]any{"value": s.Value, "unit": d.Unit}
		}
	}
	return out
}

func (b *bench) printHuman(ms, raw map[string]sample, factor float64, prov *provenance, attempted, failed int) {
	fmt.Printf("perfbench %s seed %d traced=%v rounds=%d\n", b.w.Name, b.seed, b.traced, b.roundsTotal)
	fmt.Printf("provenance: %s\n", prov.line())
	fmt.Printf("host: reference loop %.3f ms (nominal %.1f, n=%d); end-to-end times are scaled by 1/%.4f\n",
		factor*refNominalMs, refNominalMs, len(b.refMs), factor)
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	for _, d := range defs {
		s, ok := ms[d.Name]
		if !ok {
			fmt.Printf("  %-30s (not measured)\n", d.Name)
			continue
		}
		extra := ""
		if s.Note != "" {
			extra = " " + s.Note
		}
		if d.Moves != "" {
			extra += " -> " + d.Moves
		}
		if r := raw[d.Name]; r.Value != s.Value {
			extra += fmt.Sprintf(" (raw %.6g)", r.Value)
		}
		fmt.Printf("  %-30s %14.6g %-7s n=%d%s\n", d.Name, s.Value, d.Unit, s.N, extra)
	}
	fmt.Printf("  %-30s %14.6g %-7s n=%d\n", "failed_frac", frac(float64(failed), float64(attempted)), "frac", attempted)
	if b.traced {
		self := selfTimes(b.tr.snapshot())
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("  span self time:")
		for _, n := range names {
			fmt.Printf("    %-24s %10.3f s\n", n, self[n].Seconds())
		}
	}
}

// resultDoc is the result file: provenance, every metric, and the spans
// of a traced run.
type resultDoc struct {
	Provenance *provenance        `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]sample  `json:"metrics"` // end-to-end values scaled to the nominal host
	Raw        map[string]sample  `json:"raw"`     // as measured
	HostFactor float64            `json:"host_factor"`
	Moves      map[string]string  `json:"moves,omitempty"` // per-layer metric -> end-to-end metrics it should move
	SelfTimeS  map[string]float64 `json:"self_time_s,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

func (b *bench) writeResult(dir string, ms, raw map[string]sample, factor float64, prov *provenance, correct bool, attempted, failed int) error {
	doc := resultDoc{Provenance: prov, Correct: correct, Attempted: attempted, Failed: failed, Metrics: ms, Raw: raw, HostFactor: factor}
	if b.traced {
		doc.Moves = map[string]string{}
		for _, d := range perLayer {
			doc.Moves[d.Name] = d.Moves
		}
		doc.Spans = b.tr.snapshot()
		doc.SelfTimeS = map[string]float64{}
		for n, d := range selfTimes(doc.Spans) {
			doc.SelfTimeS[n] = d.Seconds()
		}
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-traced-%v.json", b.w.Name, b.seed, b.traced)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
