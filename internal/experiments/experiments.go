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
	"sync"

	"carf/internal/core"
	"carf/internal/pipeline"
	"carf/internal/profile"
	"carf/internal/regfile"
	"carf/internal/sched"
	"carf/internal/stats"
	"carf/internal/workload"
)

// StoreSchema versions the persisted encoding of cached run results
// for the on-disk tier (internal/store). Bump it whenever the shape of
// a run family's value (RunOut and the instrumented families registered
// below), the statistics it carries, or the simulation's observable
// behaviour changes — a stale blob under the old schema is then simply
// never found, rather than wrongly served. Run keys digest
// pipeline.Config, so removing or adding a Config field bumps it too.
const StoreSchema = "carf-run/v3"

func init() {
	// Every run family's value crosses the store's any-envelope, so its
	// concrete type must be registered for gob. Named here once; values
	// containing only exported scalar/slice fields round-trip exactly.
	gob.Register(RunOut{})
	gob.Register(OracleOut{})
	gob.Register(PhasesOut{})
	gob.Register(profile.CPIStack{})
	gob.Register(FaultOut{})
	gob.Register(MemlocOut{})
	gob.Register(SMTOut{})
}

// as returns a scheduler value as its run family's type. A store blob
// decodes to whatever type it was written as, so a blob found under a
// foreign key fails the experiment with an error instead of a panic.
func as[T any](v any, key sched.Key) (T, error) {
	t, ok := v.(T)
	if !ok {
		return t, fmt.Errorf("experiments: run %s holds a %T, want %T", key.Short(), v, t)
	}
	return t, nil
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

// Org names a register file organization and its content-aware
// parameters — the model half of a default-machine kernel run. It is
// the one mapping from organization names to models: carf.Config and
// carfserve's kernel jobs both resolve through it.
type Org struct {
	// Name is "unlimited", "baseline", "content-aware" (also "") or
	// "content-aware-cam".
	Name string
	// Content-aware parameters; zero takes the paper's default.
	DPlusN, ShortRegs, LongRegs int
}

// orgNames lists the organization names Org accepts.
var orgNames = []string{"unlimited", "baseline", "content-aware", "content-aware-cam"}

// spec resolves o to its model spec, validating the content-aware
// parameters. It builds no model.
func (o Org) spec() (modelSpec, error) {
	switch o.Name {
	case "baseline":
		return baselineSpec(), nil
	case "unlimited":
		return unlimitedSpec(), nil
	case "content-aware", "content-aware-cam", "":
		p := core.DefaultParams()
		if o.DPlusN > 0 {
			p.DPlusN = o.DPlusN
		}
		if o.ShortRegs > 0 {
			p.NumShort = o.ShortRegs
		}
		if o.LongRegs > 0 {
			p.NumLong = o.LongRegs
		}
		p.CAMShort = o.Name == "content-aware-cam"
		if err := p.Validate(); err != nil {
			return modelSpec{}, err
		}
		return carfSpec(p), nil
	}
	return modelSpec{}, fmt.Errorf("unknown organization %q (known: %v)", o.Name, orgNames)
}

// Validate reports whether o names a known organization with in-range
// content-aware parameters.
func (o Org) Validate() error {
	_, err := o.spec()
	return err
}

// Model builds a fresh register file model for o.
func (o Org) Model() (regfile.Model, error) {
	spec, err := o.spec()
	if err != nil {
		return nil, err
	}
	return spec.new(), nil
}

// RunOut is one simulation's harvest. Cached RunOuts are shared across
// experiments: everything reachable from one (Pstats, Files, Carf) is
// an immutable snapshot and must only be read. Fields are exported
// because RunOut is also the unit of persistence — the disk tier
// gob-encodes it, and unexported fields would be silently dropped.
// Kernel is the kernel's *name*, not the workload.Kernel itself:
// vm.Program carries unexported derived state that gob cannot carry,
// and the scheduler key already pins the exact program content.
type RunOut struct {
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
	parts := append([]any{kind, kernel, opt.Scale, specID, renderCfg(cfg)}, extra...)
	return sched.KeyOf(parts...)
}

// cfgTexts memoizes each pipeline.Config's %#v rendering, which names
// every field and value. Rendering the whole machine description costs
// more than the rest of a memory hit; the few configs a process uses
// are rendered once each.
var cfgTexts sync.Map // pipeline.Config -> cfgText

// cfgText is a config's memoized rendering. It renders under %#v as
// the text itself, so a key digests the same bytes as for the Config.
type cfgText string

func (t cfgText) GoString() string { return string(t) }

func renderCfg(cfg pipeline.Config) cfgText {
	if t, ok := cfgTexts.Load(cfg); ok {
		return t.(cfgText)
	}
	t := cfgText(fmt.Sprintf("%#v", cfg))
	cfgTexts.Store(cfg, t)
	return t
}

// simulate runs kernel k on a fresh model, optionally with a live-value
// sampler attached. It is the scheduler-job body shared by every
// harvesting path; callers go through runOneCfg (or a sibling wrapper)
// so the run is pooled and memoized. A run to completion must leave
// the kernel's checksum in the result register.
func simulate(opt Options, k workload.Kernel, spec modelSpec, cfg pipeline.Config, sampler pipeline.LiveSampler, period int, report sched.ProgressFunc) (RunOut, error) {
	model := spec.new()
	cpu := pipeline.New(cfg, k.Prog, model)
	if sampler != nil {
		cpu.SetSampler(sampler, period)
	}
	if opt.Ctx.Done() != nil {
		// Cooperative abort: the cycle loop polls ctx.Err periodically.
		// Installed out-of-band (not via Config) so cache keys, which
		// digest Config by value, stay context-free.
		cpu.SetInterrupt(opt.Ctx.Err)
	}
	if report != nil {
		// Live progress, also out-of-band for the same reason: the hook
		// never appears in Config, so run keys are byte-identical with
		// observation on or off. The budget comes from a memoized
		// functional pre-run, paid only when someone watches.
		target := workload.Budget(k, opt.Scale)
		cpu.SetProgress(func(pp pipeline.Progress) { report(toSchedProgress(pp, target)) })
	}
	st, err := cpu.Run()
	if err != nil {
		return RunOut{}, fmt.Errorf("%s on %s: %w", k.Name, model.Name(), err)
	}
	if st.ValueMismatches != 0 {
		return RunOut{}, fmt.Errorf("%s on %s: %d register reconstruction mismatches",
			k.Name, model.Name(), st.ValueMismatches)
	}
	if got := cpu.Machine().X[workload.ResultReg]; cfg.MaxInstructions == 0 && got != k.Expected {
		return RunOut{}, fmt.Errorf("%s on %s: computed %#x, expected %#x", k.Name, model.Name(), got, k.Expected)
	}
	out := RunOut{Kernel: k.Name, Pstats: st, Files: model.Files()}
	if f, ok := model.(*core.File); ok {
		cs := f.Stats()
		out.Carf = &cs
	}
	return out, nil
}

// runOne simulates kernel k on a fresh model through the scheduler.
func runOne(k workload.Kernel, spec modelSpec, opt Options) (RunOut, error) {
	return runOneCfg(k, spec, pipeline.DefaultConfig(), opt)
}

// toSchedProgress converts the simulator's progress snapshot to the
// scheduler's frame shape, stamped with the run's instruction budget
// (the scheduler stamps the wall-clock fields).
func toSchedProgress(p pipeline.Progress, target uint64) sched.Progress {
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
		Target:         target,
	}
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
func runOneCfg(k workload.Kernel, spec modelSpec, cfg pipeline.Config, opt Options) (RunOut, error) {
	return runSim(k.Name, func() (workload.Kernel, error) { return k, nil }, spec, cfg, opt)
}

// RunKernel simulates the named kernel at opt.Scale on the default
// machine (pipeline.DefaultConfig) with org's register file, as the
// same "sim" run every experiment's plain simulations are: one key,
// one memo entry and one persisted blob, whoever asks first. The
// kernel is built inside the scheduler body, so a memory or disk hit
// builds nothing. opt.Tally and opt.OnProgress apply as for an
// experiment.
func RunKernel(kernel string, org Org, opt Options) (RunOut, error) {
	spec, err := org.spec()
	if err != nil {
		return RunOut{}, err
	}
	opt = opt.withDefaults()
	return runSim(kernel, func() (workload.Kernel, error) { return workload.ByName(kernel, opt.Scale) },
		spec, pipeline.DefaultConfig(), opt)
}

// runSim submits one plain simulation of the kernel that build makes.
// build runs only inside the scheduler body, on a miss.
func runSim(kernel string, build func() (workload.Kernel, error), spec modelSpec, cfg pipeline.Config, opt Options) (RunOut, error) {
	label := runLabel("sim", kernel, spec.id)
	var onProgress sched.ProgressFunc
	if opt.OnProgress != nil {
		onProgress = func(p sched.Progress) { opt.OnProgress(label, p) }
	}
	key := runKey("sim", opt, kernel, spec.id, cfg)
	v, prov, err := opt.Sched.DoProgress(opt.Ctx, key, label, true, onProgress,
		func(report sched.ProgressFunc) (any, error) {
			k, err := build()
			if err != nil {
				return nil, err
			}
			return simulate(opt, k, spec, cfg, nil, 0, report)
		})
	opt.Tally.Record(prov, err)
	if err != nil {
		return RunOut{}, err
	}
	return as[RunOut](v, key)
}

// runSuite simulates every kernel of a suite on fresh models through
// the scheduler, returning results in suite order.
func runSuite(kernels []workload.Kernel, spec modelSpec, opt Options) ([]RunOut, error) {
	return runSuiteCfg(kernels, spec, pipeline.DefaultConfig(), opt)
}

// runSuiteCfg is runSuite with an explicit pipeline configuration.
func runSuiteCfg(kernels []workload.Kernel, spec modelSpec, cfg pipeline.Config, opt Options) ([]RunOut, error) {
	outs := make([]RunOut, len(kernels))
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
func meanRelIPC(a, b []RunOut) float64 {
	ratios := make([]float64, len(a))
	for i := range a {
		ratios[i] = a[i].Pstats.IPC() / b[i].Pstats.IPC()
	}
	return stats.Mean(ratios)
}

// dnSweep is the d+n design space of Figures 5–7 and Table 3.
var dnSweep = []int{8, 12, 16, 20, 24, 28, 32}
