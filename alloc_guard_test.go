package carf

// Allocation regression guard for the hot cycle loop. The pool/ring
// organization leaves only construction-time allocation: one full histo
// run (~150k committed instructions) must stay under allocBudget
// allocations per instruction — about 30× headroom over the measured
// ~0.0013, but ~500× below the ~0.66 a single per-instruction
// allocation would cost. A new allocation on the fetch, issue, commit,
// or squash path blows the budget immediately.

import (
	"testing"

	"carf/internal/core"
	"carf/internal/harden"
	"carf/internal/pipeline"
	"carf/internal/regfile"
	"carf/internal/workload"
)

const allocBudget = 0.04 // allocations per committed instruction

func perInstAllocs(t *testing.T, run func() uint64) float64 {
	t.Helper()
	var insts uint64
	allocs := testing.AllocsPerRun(3, func() {
		insts = run()
	})
	if insts == 0 {
		t.Fatal("run committed no instructions")
	}
	return allocs / float64(insts)
}

func TestCycleLoopAllocBudget(t *testing.T) {
	k, err := workload.ByName("histo", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkedCfg := pipeline.DefaultConfig()
	checkedCfg.Harden = harden.Options{Lockstep: true, SweepEvery: 4096, WatchdogAfter: 50000}

	cases := []struct {
		name string
		run  func() uint64
	}{
		{"baseline", func() uint64 {
			st, err := pipeline.New(pipeline.DefaultConfig(), k.Prog, regfile.Baseline()).Run()
			if err != nil {
				t.Fatal(err)
			}
			return st.Instructions
		}},
		{"checked", func() uint64 {
			cpu, err := pipeline.NewChecked(checkedCfg, k.Prog, regfile.Baseline())
			if err != nil {
				t.Fatal(err)
			}
			st, err := cpu.Run()
			if err != nil {
				t.Fatal(err)
			}
			return st.Instructions
		}},
		{"profiled", func() uint64 {
			cpu := pipeline.New(pipeline.DefaultConfig(), k.Prog, regfile.Baseline())
			cpu.InstallProfiler()
			st, err := cpu.Run()
			if err != nil {
				t.Fatal(err)
			}
			return st.Instructions
		}},
		// The content-aware model on the superblock replay path: the
		// decoded fast loop must be as allocation-free as the generic one.
		{"carf", func() uint64 {
			st, err := pipeline.New(pipeline.DefaultConfig(), k.Prog, core.New(core.DefaultParams())).Run()
			if err != nil {
				t.Fatal(err)
			}
			return st.Instructions
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := perInstAllocs(t, c.run); got > allocBudget {
				t.Errorf("%s: %.4f allocations per committed instruction, budget %.4f — something on the cycle loop started allocating",
					c.name, got, allocBudget)
			}
		})
	}
}
