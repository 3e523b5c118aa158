// Package experiments regenerates every table and figure of the paper's
// evaluation (§4–§5), plus the sensitivity sweeps discussed in the text
// and the §6 extension studies. Each experiment runs the benchmark
// suites on the relevant register file organizations and renders the
// same rows/series the paper reports; DESIGN.md §4 maps experiment ids
// to paper exhibits, and EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"context"
	"encoding/gob"
	"fmt"

	"carf/internal/core"
	"carf/internal/pipeline"
	"carf/internal/regfile"
	"carf/internal/sched"
	"carf/internal/stats"
	"carf/internal/workload"
)

// StoreSchema versions the persisted encoding of cached run results
// for the on-disk tier (internal/store). Bump it whenever runOut's
// shape, the statistics it carries, or the simulation's observable
// behaviour changes — a stale blob under the old schema is then simply
// never found, rather than wrongly served.
const StoreSchema = "carf-run/v1"

func init() {
	// runOut crosses the store's any-envelope, so its concrete type must
	// be registered for gob. Named here once; values containing only
	// exported scalar/slice fields round-trip exactly.
	gob.Register(runOut{})
}

// Options configures an experiment run.
type Options struct {
	// Ctx carries cancellation and deadlines into every simulation this
	// experiment schedules: queued runs abort before starting, running
	// sims poll it cooperatively, and joiners detach. nil means
	// context.Background() (never canceled).
	Ctx context.Context
	// Scale multiplies benchmark work (1.0 = the standard ~200–400k
	// dynamic instructions per kernel; experiments default to 0.25).
	Scale float64
	// SamplePeriod is the live-value oracle sampling period in cycles.
	SamplePeriod int
	// Parallel bounds concurrent simulations. The bound applies to the
	// scheduler's *global* worker pool, which is shared by every
	// concurrently-executing experiment — it is not a per-experiment
	// limit. 0 leaves the pool at its current size (GOMAXPROCS unless
	// resized earlier).
	Parallel int
	// Sched routes this run's simulations through a specific scheduler
	// (nil = the process-global sched.Global()). Tests and benchmarks
	// use isolated schedulers to measure cold/warm/serial cache states.
	Sched *sched.Scheduler
	// Tally, when non-nil, accumulates this experiment's own scheduler
	// provenance (runs/hits/misses/joins), attributing shared-pool work
	// per experiment even when many run concurrently. Run installs one
	// automatically and reports it in Result.Sched.
	Tally *sched.Tally
	// Batch is ignored: every simulation runs through the one scalar
	// cycle loop (pipeline.CPU.Run). The field remains only because the
	// pinned benchmark harness (perfbench) still sets it.
	Batch int
	// OnProgress, when non-nil, receives live progress frames from every
	// simulation this experiment actually executes (cache hits and joins
	// produce none — they do no work). label identifies the run the same
	// way the telemetry run table does. The callback must be safe for
	// concurrent use: parallel simulations report concurrently. Progress
	// is strictly observational — it never participates in run keys and
	// never changes rendered output.
	OnProgress func(label string, p sched.Progress)
}

func (o Options) withDefaults() Options {
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	if o.SamplePeriod <= 0 {
		o.SamplePeriod = 128
	}
	if o.Sched == nil {
		o.Sched = sched.Global()
	}
	if o.Parallel > 0 {
		o.Sched.SetWorkers(o.Parallel)
	}
	return o
}

// Result is one experiment's rendered output.
type Result struct {
	Name   string
	Tables []stats.Table

	// Sched is this experiment's own slice of scheduler activity: how
	// many simulations it requested and how they were served (simulated
	// / cache hit / joined an in-flight run). Unlike Scheduler.Stats,
	// which is process-wide, this is attributable per experiment even
	// under concurrent studies. Rendering does not include it.
	Sched sched.Stats
}

// Render formats all tables.
func (r Result) Render() string {
	out := ""
	for _, t := range r.Tables {
		out += t.Render() + "\n"
	}
	return out
}

type experiment struct {
	name string
	desc string
	run  func(Options) (Result, error)
}

var registry = []experiment{
	{"fig1", "Figure 1: distribution of live integer register values by frequency group", Fig1},
	{"fig2", "Figure 2: distribution of (64-d)-similar live values, d = 8/12/16", Fig2},
	{"fig5", "Figure 5: relative IPC vs d+n (8 short, 48 long registers)", Fig5},
	{"fig6", "Figure 6: register file read/write access distribution by value type vs d+n", Fig6},
	{"fig7", "Figure 7: register file energy vs d+n, relative to the unlimited file", Fig7},
	{"fig8", "Figure 8: register file area relative to the unlimited file", Fig8},
	{"fig9", "Figure 9: register file access time relative to the unlimited file", Fig9},
	{"table2", "Table 2: percentage of bypassed operands", Table2},
	{"table3", "Table 3: single-access energy per sub-file, normalized to unlimited", Table3},
	{"table4", "Table 4: source-operand type distribution (d+n = 20)", Table4},
	{"sweeps", "§4 sensitivity: short/long file sizes, live-long occupancy, pseudo-deadlock", Sweeps},
	{"ext", "§6 extensions: CAM short file, SMT sharing, clustering affinity, reclamation/bypass ablations", Extensions},
	{"memloc", "§6 memory direction: partial value locality in addresses and data traffic", Memloc},
	{"wrongpath", "fidelity ablation: speculative wrong-path execution vs fetch stall", WrongPath},
	{"cluster", "§6 clustering: value-type-steered half-width clusters vs unified", Cluster},
	{"kernels", "per-kernel transparency: IPC on all organizations, mispredicts, write mix", Kernels},
	{"phases", "phase variance: interval IPC and sub-file occupancy time series per kernel", Phases},
	{"calibration", "energy-model robustness: conclusions across technology constants", Calibration},
	{"faults", "hardening: fault-injection detection coverage and latency per fault class", Faults},
	{"cpistack", "attribution: CPI-stack slot accounting per organization, baseline->carf delta decomposition", CPIStackStudy},
}

// Names lists experiment ids in paper order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Describe returns the one-line description of an experiment.
func Describe(name string) string {
	for _, e := range registry {
		if e.name == name {
			return e.desc
		}
	}
	return ""
}

// Run executes one experiment by id. Each call gets its own provenance
// tally (unless the caller supplies one), reported in Result.Sched.
func Run(name string, opt Options) (Result, error) {
	for _, e := range registry {
		if e.name == name {
			opt = opt.withDefaults()
			if opt.Tally == nil {
				opt.Tally = new(sched.Tally)
			}
			r, err := e.run(opt)
			r.Sched = opt.Tally.Stats()
			return r, err
		}
	}
	return Result{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, Names())
}

// RunAll executes every experiment in paper order.
func RunAll(opt Options) ([]Result, error) {
	var out []Result
	for _, e := range registry {
		r, err := Run(e.name, opt)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// modelSpec builds a fresh register file model per simulation (models
// are stateful and single-run). The id is the spec's contribution to
// the scheduler's memoization key: two specs with equal ids must build
// behaviourally identical models.
type modelSpec struct {
	id  string
	new func() regfile.Model
}

func baselineSpec() modelSpec {
	return modelSpec{"baseline", func() regfile.Model { return regfile.Baseline() }}
}

func unlimitedSpec() modelSpec {
	return modelSpec{"unlimited", func() regfile.Model { return regfile.Unlimited() }}
}

func carfSpec(p core.Params) modelSpec {
	return modelSpec{fmt.Sprintf("carf%+v", p), func() regfile.Model { return core.New(p) }}
}

// runOut is one simulation's harvest. Cached runOuts are shared across
// experiments: everything reachable from one (Pstats, Files, Carf) is
// an immutable snapshot and must only be read. Fields are exported
// because runOut is also the unit of persistence — the disk tier
// gob-encodes it, and unexported fields would be silently dropped.
// Kernel is the kernel's *name*, not the workload.Kernel itself:
// vm.Program carries unexported derived state that gob cannot carry,
// and the scheduler key already pins the exact program content.
type runOut struct {
	Kernel string
	Pstats pipeline.Stats
	Files  []regfile.FileActivity
	Carf   *core.Stats
}

// runKey digests everything a plain simulation's result depends on.
// kind separates request families that run different harnesses on the
// same inputs (plain sim, oracle-sampled, profiled, ...); extras carry
// family-specific knobs (sampler periods, fault descriptors).
func runKey(kind string, opt Options, kernel string, specID string, cfg pipeline.Config, extra ...any) sched.Key {
	parts := append([]any{kind, kernel, opt.Scale, specID, cfg}, extra...)
	return sched.KeyOf(parts...)
}

// simulate runs kernel k on a fresh model, optionally with a live-value
// sampler attached. It is the scheduler-job body shared by every
// harvesting path; callers go through runOneCfg (or a sibling wrapper)
// so the run is pooled and memoized.
func simulate(ctx context.Context, k workload.Kernel, spec modelSpec, cfg pipeline.Config, sampler pipeline.LiveSampler, period int, report sched.ProgressFunc) (runOut, error) {
	model := spec.new()
	cpu := pipeline.New(cfg, k.Prog, model)
	if sampler != nil {
		cpu.SetSampler(sampler, period)
	}
	if ctx.Done() != nil {
		// Cooperative abort: the cycle loop polls ctx.Err periodically.
		// Installed out-of-band (not via Config) so cache keys, which
		// digest Config by value, stay context-free.
		cpu.SetInterrupt(ctx.Err)
	}
	if report != nil {
		// Live progress, also out-of-band for the same reason: the hook
		// never appears in Config, so run keys are byte-identical with
		// observation on or off.
		cpu.SetProgress(func(pp pipeline.Progress) { report(toSchedProgress(pp)) })
	}
	st, err := cpu.Run()
	if err != nil {
		return runOut{}, fmt.Errorf("%s on %s: %w", k.Name, model.Name(), err)
	}
	if st.ValueMismatches != 0 {
		return runOut{}, fmt.Errorf("%s on %s: %d register reconstruction mismatches",
			k.Name, model.Name(), st.ValueMismatches)
	}
	out := runOut{Kernel: k.Name, Pstats: st, Files: model.Files()}
	if f, ok := model.(*core.File); ok {
		cs := f.Stats()
		out.Carf = &cs
	}
	return out, nil
}

// runOne simulates kernel k on a fresh model through the scheduler.
func runOne(k workload.Kernel, spec modelSpec, opt Options) (runOut, error) {
	return runOneCfg(k, spec, pipeline.DefaultConfig(), opt)
}

// toSchedProgress converts the simulator's progress snapshot to the
// scheduler's frame shape (the scheduler stamps the wall-clock fields).
func toSchedProgress(p pipeline.Progress) sched.Progress {
	return sched.Progress{
		Cycles:         p.Cycles,
		Insts:          p.Instructions,
		IntervalCycles: p.IntervalCycles,
		IntervalInsts:  p.IntervalInstructions,
		IntervalIPC:    p.IntervalIPC,
		ROB:            p.ROB,
		IntIQ:          p.IntIQ,
		FPIQ:           p.FPIQ,
		LSQ:            p.LSQ,
		Writes:         p.Writes,
		Final:          p.Final,
	}
}

// progressTarget returns the kernel's dynamic instruction budget for
// ETA math, or 0 when nobody is watching — the budget comes from a
// (memoized) functional pre-run, a cost worth paying only when an
// observer or progress callback will consume the ETA.
func progressTarget(opt Options, k workload.Kernel) uint64 {
	if !opt.Sched.Observed() && opt.OnProgress == nil {
		return 0
	}
	return workload.Budget(k, opt.Scale)
}

// runLabel renders the human-readable run description carried to the
// telemetry plane (span names, /runs rows, log lines). Labels are
// display-only: the content Key remains the scheduling identity.
func runLabel(kind, kernel, specID string) string {
	return kind + "/" + kernel + "/" + specID
}

// runOneCfg is runOne with an explicit pipeline configuration
// (ablations: bypass depth, widths). The run is submitted to the
// scheduler: concurrency is bounded by the shared worker pool and the
// result is memoized by (kernel, scale, model spec, config).
func runOneCfg(k workload.Kernel, spec modelSpec, cfg pipeline.Config, opt Options) (runOut, error) {
	label := runLabel("sim", k.Name, spec.id)
	var onProgress sched.ProgressFunc
	if opt.OnProgress != nil {
		onProgress = func(p sched.Progress) { opt.OnProgress(label, p) }
	}
	v, prov, err := opt.Sched.DoProgress(opt.Ctx, runKey("sim", opt, k.Name, spec.id, cfg),
		label, true, progressTarget(opt, k), onProgress,
		func(report sched.ProgressFunc) (any, error) {
			return simulate(opt.Ctx, k, spec, cfg, nil, 0, report)
		})
	opt.Tally.Record(prov, err)
	if err != nil {
		return runOut{}, err
	}
	return v.(runOut), nil
}

// runSuite simulates every kernel of a suite on fresh models through
// the scheduler, returning results in suite order.
func runSuite(kernels []workload.Kernel, spec modelSpec, opt Options) ([]runOut, error) {
	return runSuiteCfg(kernels, spec, pipeline.DefaultConfig(), opt)
}

// runSuiteCfg is runSuite with an explicit pipeline configuration.
func runSuiteCfg(kernels []workload.Kernel, spec modelSpec, cfg pipeline.Config, opt Options) ([]runOut, error) {
	outs := make([]runOut, len(kernels))
	err := sched.ForEach(len(kernels), func(i int) error {
		var err error
		outs[i], err = runOneCfg(kernels[i], spec, cfg, opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// meanRelIPC returns mean(IPC_a / IPC_b) across paired runs.
func meanRelIPC(a, b []runOut) float64 {
	ratios := make([]float64, len(a))
	for i := range a {
		ratios[i] = a[i].Pstats.IPC() / b[i].Pstats.IPC()
	}
	return stats.Mean(ratios)
}

// dnSweep is the d+n design space of Figures 5–7 and Table 3.
var dnSweep = []int{8, 12, 16, 20, 24, 28, 32}
