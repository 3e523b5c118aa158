package experiments

import (
	"fmt"

	"carf/internal/oracle"
	"carf/internal/pipeline"
	"carf/internal/sched"
	"carf/internal/stats"
	"carf/internal/workload"
)

// oracleSuite runs every kernel of a suite on the baseline machine with
// one live-value analyzer per requested d, merged across kernels. Each
// kernel's sampled run goes through the scheduler keyed on (kernel,
// scale, d-list, sampling period), so fig1 and fig2 share runs when
// they request the same analysis; the per-kernel analyzers in the
// cache are immutable — Merge only reads its argument — and the merge
// happens in suite order after every run completes.
func oracleSuite(kernels []workload.Kernel, ds []int, opt Options) ([]*oracle.Analyzer, error) {
	perKernel := make([][]*oracle.Analyzer, len(kernels))
	cfg := pipeline.DefaultConfig()
	err := sched.ForEach(len(kernels), func(i int) error {
		k := kernels[i]
		key := runKey("oracle", opt, k.Name, "baseline", cfg, ds, opt.SamplePeriod)
		v, prov, err := opt.Sched.DoCtx(opt.Ctx, key, runLabel("oracle", k.Name, "baseline"), true, func() (any, error) {
			analyzers := make([]*oracle.Analyzer, len(ds))
			local := make(oracle.Fanout, len(ds))
			for j, d := range ds {
				analyzers[j] = oracle.NewAnalyzer(d)
				local[j] = analyzers[j]
			}
			if _, err := simulate(opt.Ctx, k, baselineSpec(), cfg, local, opt.SamplePeriod, nil); err != nil {
				return nil, err
			}
			return analyzers, nil
		})
		opt.Tally.Record(prov, err)
		if err != nil {
			return err
		}
		perKernel[i] = v.([]*oracle.Analyzer)
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := make([]*oracle.Analyzer, len(ds))
	for j, d := range ds {
		merged[j] = oracle.NewAnalyzer(d)
		for i := range kernels {
			merged[j].Merge(perKernel[i][j])
		}
	}
	return merged, nil
}

func distributionRow(label string, d [oracle.NumBuckets]float64) []string {
	row := []string{label}
	for _, f := range d {
		row = append(row, stats.Pct(f))
	}
	return row
}

// Fig1 reproduces Figure 1: the distribution of live integer register
// values by frequency group for the integer and FP suites.
func Fig1(opt Options) (Result, error) {
	tb := stats.Table{
		Title:  "Figure 1: Distribution of live integer data values by frequency group",
		Header: append([]string{"suite"}, oracle.BucketLabels[:]...),
	}
	for _, suite := range []struct {
		label   string
		kernels []workload.Kernel
	}{
		{"SPECint-like", workload.IntSuite(opt.Scale)},
		{"SPECfp-like", workload.FPSuite(opt.Scale)},
	} {
		merged, err := oracleSuite(suite.kernels, []int{0}, opt)
		if err != nil {
			return Result{}, err
		}
		tb.Rows = append(tb.Rows, distributionRow(suite.label, merged[0].Distribution()))
	}
	tb.AddNote("paper: a single value accounts for ~14%% of SPECint live values; REST ~55%% (int), ~63%% (fp)")
	return Result{Name: "fig1", Tables: []stats.Table{tb}}, nil
}

// Fig2 reproduces Figure 2: the distribution of (64−d)-similar live
// integer values for d = 8, 12, 16, across the full suite.
func Fig2(opt Options) (Result, error) {
	ds := []int{8, 12, 16}
	merged, err := oracleSuite(workload.AllKernels(opt.Scale), ds, opt)
	if err != nil {
		return Result{}, err
	}
	tb := stats.Table{
		Title:  "Figure 2: Distribution of (64-d)-similar live integer data values",
		Header: append([]string{"d"}, oracle.BucketLabels[:]...),
	}
	for i, d := range ds {
		tb.Rows = append(tb.Rows, distributionRow(fmt.Sprintf("(64-%d)-similar", d), merged[i].Distribution()))
	}
	tb.AddNote("paper (d=8): Group 1 ~35%%, REST ~35%%; REST shrinks as d grows; top-4 groups capture ~70%% at d=16")
	return Result{Name: "fig2", Tables: []stats.Table{tb}}, nil
}
