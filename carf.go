// Package carf is the public API of the content-aware register file
// reproduction: it runs benchmark kernels on a cycle-level out-of-order
// superscalar processor (Table 1 of the paper) with a selectable integer
// register file organization, and regenerates the paper's evaluation.
//
// Quick start:
//
//	res, err := carf.Run("qsort", carf.Config{Organization: carf.ContentAware})
//	fmt.Printf("IPC %.3f, register file energy %.0f\n", res.IPC, res.RegFileEnergy)
//
// The organizations are the paper's three comparands: the
// unlimited-resource file (160×64b, 16R/8W), the baseline file (112×64b,
// 8R/6W), and the content-aware organization that splits the file into
// Simple/Short/Long sub-files around partial value locality. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results.
package carf

import (
	"context"
	"fmt"
	"math"

	"carf/internal/core"
	"carf/internal/energy"
	"carf/internal/experiments"
	"carf/internal/harden"
	"carf/internal/metrics"
	"carf/internal/pipeline"
	"carf/internal/profile"
	"carf/internal/workload"
)

// Organization names an integer register file organization.
type Organization string

const (
	// Unlimited is the unconstrained reference file (160 entries,
	// 16R/8W ports): the paper's normalization anchor.
	Unlimited Organization = "unlimited"
	// Baseline is the realistic conventional file (112 entries, 8R/6W).
	Baseline Organization = "baseline"
	// ContentAware is the paper's contribution: Simple/Short/Long
	// sub-files exploiting partial value locality.
	ContentAware Organization = "content-aware"
	// ContentAwareCAM is the fully-associative Short file variant
	// (higher IPC, CAM energy cost; rejected in §4).
	ContentAwareCAM Organization = "content-aware-cam"
)

// Organizations lists the selectable organizations.
func Organizations() []Organization {
	return []Organization{Unlimited, Baseline, ContentAware, ContentAwareCAM}
}

// Config selects the register file organization and its parameters.
// The zero value runs the content-aware organization at the paper's
// chosen configuration (112 simple, 8 short, 48 long, d+n = 20) on a
// standard-size workload.
type Config struct {
	// Organization defaults to ContentAware.
	Organization Organization

	// Content-aware parameters (ignored by conventional organizations);
	// zero values take the paper's defaults.
	DPlusN    int // width of the Simple value field (default 20)
	ShortRegs int // Short file entries, power of two (default 8)
	LongRegs  int // Long file entries (default 48)

	// Scale multiplies benchmark work (default 1.0: a few hundred
	// thousand dynamic instructions).
	Scale float64

	// MaxInstructions bounds the simulation (0 = run to completion).
	MaxInstructions uint64

	// MetricsInterval samples every registered metric series (pipeline
	// throughput and occupancies, sub-file occupancy, cache miss rates,
	// predictor accuracy, ...) each time this many cycles elapse,
	// collecting them into Result.Series. 0 disables sampling.
	MetricsInterval uint64

	// TraceEvents retains up to this many committed-instruction pipeline
	// trace events in Result.Trace (0 disables tracing, negative is
	// unbounded). Overflow is counted in Result.Trace.Dropped.
	TraceEvents int

	// Check enables the hardening layer for this run: lockstep
	// co-simulation of the golden model at every commit, periodic
	// invariant sweeps over the rename state and register file encodings,
	// and a watchdog that converts a zero-commit hang into a structured
	// error. Roughly doubles run time; off by default.
	Check bool

	// CheckInterval is the invariant-sweep period in cycles when Check is
	// on (0 uses a default of 4096).
	CheckInterval uint64

	// Profile attaches the attribution profiler: a CPI stack charging
	// every commit-slot deficit to one blame category, and a per-PC
	// profile of commits, mispredictions, cache misses, value classes,
	// and spills. Results land in Result.Profile. Off by default (the
	// simulation path then pays one nil check per cycle).
	Profile bool
}

// DefaultCheckInterval is the invariant-sweep period used when Check is
// on and CheckInterval is 0.
const DefaultCheckInterval = 4096

// checkWatchdogAfter is the zero-commit watchdog limit for checked runs:
// far beyond any legitimate stall (the worst §3.2 Recovery State episode
// is bounded by DeadlockSpillAfter = 200 cycles) but well under the
// pipeline's blunt 100k idle limit.
const checkWatchdogAfter = 50000

// Validate reports whether cfg describes a runnable configuration:
// a known organization, in-range content-aware parameters, and sane
// scale. Run calls it; CLIs can call it early for a better message.
func (c Config) Validate() error {
	if err := c.org().Validate(); err != nil {
		return fmt.Errorf("carf: %w", err)
	}
	if c.Scale < 0 || math.IsNaN(c.Scale) || math.IsInf(c.Scale, 0) {
		return fmt.Errorf("carf: scale %v must be a non-negative finite number (0 means the default 1.0)", c.Scale)
	}
	return nil
}

// org is the organization half of c, in the form the experiment
// harness resolves to a register file model.
func (c Config) org() experiments.Org {
	return experiments.Org{Name: string(c.Organization), DPlusN: c.DPlusN, ShortRegs: c.ShortRegs, LongRegs: c.LongRegs}
}

// Result reports one simulation.
type Result struct {
	Kernel       string
	Organization Organization

	Cycles       uint64
	Instructions uint64
	IPC          float64

	Branches    uint64
	Mispredicts uint64

	// Integer register file operand traffic.
	IntOperands      uint64
	BypassedOperands uint64
	BypassRate       float64

	// Register file physical characterization (normalized model units;
	// meaningful relative to other Results on the same workload).
	RegFileEnergy     float64
	RegFileArea       float64
	RegFileAccessTime float64

	// Content-aware organizations only.
	ReadsByType    [3]uint64 // simple, short, long
	WritesByType   [3]uint64
	AvgLiveLong    float64
	RecoveryStalls uint64

	// Series holds the interval metric samples (Config.MetricsInterval
	// > 0 only); export it with the metrics package writers.
	Series *metrics.TimeSeries

	// Trace holds the retained pipeline trace (Config.TraceEvents != 0
	// only); convert it with pipeline.ChromeTraceEvents for Perfetto.
	Trace *pipeline.TraceBuffer

	// Profile holds the CPI stack and per-PC attribution profile
	// (Config.Profile only); export it with its Write methods.
	Profile *profile.Profiler
}

// Kernels lists the benchmark kernel names (14 integer, 8 FP).
func Kernels() []string { return workload.Names() }

// Run simulates one kernel under cfg.
func Run(kernel string, cfg Config) (Result, error) {
	return RunCtx(context.Background(), kernel, cfg)
}

// RunCtx is Run with cancellation: the simulation polls ctx
// periodically and aborts with ctx's error once it is canceled or past
// its deadline. The partial run's statistics are discarded — a
// canceled simulation never produces a Result.
func RunCtx(ctx context.Context, kernel string, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	k, err := workload.ByName(kernel, cfg.Scale)
	if err != nil {
		return Result{}, err
	}
	model, err := cfg.org().Model()
	if err != nil {
		return Result{}, err
	}
	pcfg := pipeline.DefaultConfig()
	pcfg.MaxInstructions = cfg.MaxInstructions
	if cfg.Check {
		interval := cfg.CheckInterval
		if interval == 0 {
			interval = DefaultCheckInterval
		}
		pcfg.Harden = harden.Options{
			Lockstep:      true,
			SweepEvery:    interval,
			WatchdogAfter: checkWatchdogAfter,
		}
	}
	cpu, err := pipeline.NewChecked(pcfg, k.Prog, model)
	if err != nil {
		return Result{}, err
	}
	var sampler *metrics.Sampler
	if cfg.MetricsInterval > 0 {
		sampler = cpu.InstallMetrics(metrics.NewRegistry(), cfg.MetricsInterval)
	}
	var trace *pipeline.TraceBuffer
	if cfg.TraceEvents != 0 {
		trace = &pipeline.TraceBuffer{Cap: max(cfg.TraceEvents, 0)}
		cpu.SetTracer(trace)
	}
	var prof *profile.Profiler
	if cfg.Profile {
		prof = cpu.InstallProfiler()
	}
	if ctx.Done() != nil {
		cpu.SetInterrupt(ctx.Err)
	}
	st, err := cpu.Run()
	if err != nil {
		return Result{}, err
	}
	if st.ValueMismatches != 0 {
		return Result{}, fmt.Errorf("carf: %d register file reconstruction mismatches", st.ValueMismatches)
	}
	if cfg.MaxInstructions == 0 {
		if got := cpu.Machine().X[workload.ResultReg]; got != k.Expected {
			return Result{}, fmt.Errorf("carf: %s computed %#x, expected %#x", kernel, got, k.Expected)
		}
	}

	org := cfg.Organization
	if org == "" {
		org = ContentAware
	}
	tech := energy.DefaultTech()
	rep := tech.Organization(model.Files())
	res := Result{
		Kernel:            kernel,
		Organization:      org,
		Cycles:            st.Cycles,
		Instructions:      st.Instructions,
		IPC:               st.IPC(),
		Branches:          st.Branches,
		Mispredicts:       st.Mispredicts,
		IntOperands:       st.IntOperands,
		BypassedOperands:  st.BypassedOperands,
		BypassRate:        st.BypassRate(),
		RegFileEnergy:     rep.TotalEnergy,
		RegFileArea:       rep.TotalArea,
		RegFileAccessTime: rep.WorstTime,
		RecoveryStalls:    st.RecoveryStallCycles,
		Trace:             trace,
		Profile:           prof,
	}
	if sampler != nil {
		series := sampler.Series()
		res.Series = &series
	}
	if f, ok := model.(*core.File); ok {
		cs := f.Stats()
		res.ReadsByType = cs.ReadsByType
		res.WritesByType = cs.WritesByType
		res.AvgLiveLong = cs.AvgLiveLong()
	}
	return res, nil
}

// Experiments lists the reproducible paper exhibits (figures, tables,
// sensitivity sweeps, extensions) in paper order.
func Experiments() []string { return experiments.Names() }

// DescribeExperiment returns a one-line description of an experiment id.
func DescribeExperiment(name string) string { return experiments.Describe(name) }

// ExperimentOptions tunes an experiment run.
type ExperimentOptions struct {
	// Ctx cancels the experiment: queued simulations abort before
	// starting, running ones stop cooperatively, and the experiment
	// returns ctx's error. nil means context.Background().
	Ctx context.Context

	// Scale multiplies benchmark work (default 0.25 — experiments run
	// many simulations).
	Scale float64

	// Parallel bounds the number of simulations in flight at once.
	// The bound is global: every experiment in the process shares one
	// scheduler pool, so concurrent RunExperiment calls never exceed it
	// combined. 0 leaves the current bound (initially GOMAXPROCS).
	Parallel int
}

// RunExperiment regenerates one paper exhibit and returns its rendered
// tables. Simulations run through the process-global scheduler: they
// share its bounded worker pool with every other in-flight experiment,
// and completed runs are memoized, so experiments that revisit the same
// (kernel, organization, configuration) combination — most of them do —
// reuse earlier results. Rendered output is deterministic: it does not
// depend on Parallel or on cache state.
func RunExperiment(name string, opt ExperimentOptions) (string, error) {
	r, err := experiments.Run(name, experiments.Options{Ctx: opt.Ctx, Scale: opt.Scale, Parallel: opt.Parallel})
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}
