package pipeline

import (
	"errors"
	"strings"
	"testing"

	"carf/internal/core"
	"carf/internal/harden"
	"carf/internal/isa"
	"carf/internal/regfile"
	"carf/internal/vm"
	"carf/internal/workload"
)

// hardenedConfig is DefaultConfig with every checker on, at a sweep
// period tight enough for the tests to measure detection latency.
func hardenedConfig() Config {
	cfg := DefaultConfig()
	cfg.Harden = harden.Options{Lockstep: true, SweepEvery: 64, WatchdogAfter: 20000}
	return cfg
}

// TestHardenedRunClean: a healthy machine must pass lockstep, sweeps,
// and the watchdog on every register file organization — no false
// positives.
func TestHardenedRunClean(t *testing.T) {
	for _, spec := range []struct {
		name  string
		model regfile.Model
	}{
		{"content-aware", carfModel()},
		{"baseline", regfile.Baseline()},
		{"unlimited", regfile.Unlimited()},
	} {
		k, err := workload.ByName("hashprobe", 0.1)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := NewChecked(hardenedConfig(), k.Prog, spec.model)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		st, err := cpu.Run()
		if err != nil {
			t.Fatalf("%s: hardened run failed: %v", spec.name, err)
		}
		if got := cpu.mach.X[workload.ResultReg]; got != k.Expected {
			t.Errorf("%s: result %#x, want %#x", spec.name, got, k.Expected)
		}
		if st.Instructions == 0 {
			t.Errorf("%s: no instructions committed", spec.name)
		}
	}
}

// TestWatchdogConvertsDeadlock: with the Long file too small and the
// forced-spill escape hatch disabled, write-back sticks in Recovery
// State forever; the watchdog must convert the hang into a structured
// DeadlockError carrying a diagnostic bundle.
func TestWatchdogConvertsDeadlock(t *testing.T) {
	p := core.DefaultParams()
	p.NumLong = 2
	k, err := workload.ByName("crc64", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DeadlockSpillAfter = 1 << 30 // never spill: the hang is permanent
	cfg.Harden = harden.Options{WatchdogAfter: 2000}
	cpu, err := NewChecked(cfg, k.Prog, core.New(p))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cpu.Run()
	var dead *harden.DeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("got %v, want a DeadlockError", err)
	}
	if dead.StalledFor < 2000 {
		t.Errorf("reported stall of %d cycles, watchdog limit is 2000", dead.StalledFor)
	}
	if dead.Bundle == nil {
		t.Fatal("deadlock error carries no diagnostic bundle")
	}
	if fm := dead.Bundle.Format(); !strings.Contains(fm, "recovery_stalls") {
		t.Errorf("bundle lacks recovery-stall statistics:\n%s", fm)
	}
}

// TestForcedSpillUnderPseudoDeadlock: with a 2-entry Long file and an
// aggressive spill threshold, forced spills must fire — and the full
// hardening layer must agree that the architectural results still match
// the golden model exactly.
func TestForcedSpillUnderPseudoDeadlock(t *testing.T) {
	p := core.DefaultParams()
	p.NumLong = 2
	k, err := workload.ByName("crc64", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hardenedConfig()
	cfg.DeadlockSpillAfter = 3
	model := core.New(p)
	cpu, err := NewChecked(cfg, k.Prog, model)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cpu.Run()
	if err != nil {
		t.Fatalf("hardened run with forced spills failed: %v", err)
	}
	if st.ForcedSpills == 0 {
		t.Fatal("a 2-entry long file with spill-after-3 never forced a spill")
	}
	// The VM golden model run standalone must agree with the pipeline's
	// final architectural state, spills and all.
	golden := goldenRun(t, k)
	for r, want := range golden {
		if got := cpu.mach.X[r]; got != want {
			t.Errorf("x%d = %#x after forced spills, golden model has %#x", r, got, want)
		}
	}
	if got := cpu.mach.X[workload.ResultReg]; got != k.Expected {
		t.Errorf("result %#x, want %#x", got, k.Expected)
	}
}

// TestScheduledFaultIsDetected: a corrupted Short group must be caught
// by one of the checkers, with a bounded detection latency.
func TestScheduledFaultIsDetected(t *testing.T) {
	k, err := workload.ByName("hashprobe", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewChecked(hardenedConfig(), k.Prog, carfModel())
	if err != nil {
		t.Fatal(err)
	}
	cpu.ScheduleFault(harden.Fault{Class: harden.FaultShortBit, Cycle: 2000, Seed: 1})
	_, err = cpu.Run()
	if err == nil {
		t.Fatal("short-file corruption went undetected")
	}
	var div *harden.DivergenceError
	var inv *harden.InvariantError
	if !errors.As(err, &div) && !errors.As(err, &inv) {
		t.Fatalf("detected by an unexpected path: %v", err)
	}
	outs := cpu.Injections()
	if len(outs) != 1 || !outs[0].Injected {
		t.Fatalf("injection bookkeeping: %+v", outs)
	}
}

// TestSMTSurfacesHardeningErrors: a fault injected through one thread
// corrupts the shared register file, and whichever thread's checker
// sees it first must end SMT.Run with its error instead of the run
// finishing clean.
func TestSMTSurfacesHardeningErrors(t *testing.T) {
	ka, err := workload.ByName("crc64", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := workload.ByName("hashprobe", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Harden = harden.Options{Lockstep: true, SweepEvery: 256}
		p := core.DefaultParams()
		p.NumLong = 24
		smt := NewSMT(cfg, [2]*vm.Program{ka.Prog, kb.Prog}, core.New(p))
		if fault {
			smt.Thread(0).ScheduleFault(harden.Fault{Class: harden.FaultShortBit, Cycle: 2000, Seed: 1})
		}
		_, err := smt.Run()
		if !fault {
			if err != nil {
				t.Fatalf("clean SMT run failed: %v", err)
			}
			continue
		}
		var div *harden.DivergenceError
		var inv *harden.InvariantError
		if !errors.As(err, &div) && !errors.As(err, &inv) {
			t.Fatalf("short-file corruption on a shared file: got %v, want a divergence or invariant error", err)
		}
	}
}

// TestLostWakeupIsDetected: an issue-queue entry dropped from its
// producer's waiter list is never woken again. The sweep must name the
// lost wakeup instead of leaving it to surface as a late deadlock.
func TestLostWakeupIsDetected(t *testing.T) {
	k, err := workload.ByName("hashprobe", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewChecked(hardenedConfig(), k.Prog, carfModel())
	if err != nil {
		t.Fatal(err)
	}
	lost := false
	for !lost && !cpu.done && cpu.now < 100000 {
		cpu.cycle()
		if cpu.hard.err != nil {
			t.Fatalf("healthy prefix failed: %v", cpu.hard.err)
		}
		// Drop a list holding a live parked consumer, mid-run.
		for tag, list := range cpu.intWaiters {
			for _, w := range list {
				if w.in.seq == w.seq && !w.in.issued {
					cpu.intWaiters[tag] = list[:0]
					lost = true
					break
				}
			}
			if lost {
				break
			}
		}
	}
	if !lost {
		t.Fatal("no consumer was ever parked on an integer waiter list")
	}
	_, err = cpu.Run()
	var inv *harden.InvariantError
	if !errors.As(err, &inv) {
		t.Fatalf("got %v, want an InvariantError", err)
	}
	named := false
	for _, v := range inv.Violations {
		named = named || v.Check == "iq-wakeup"
	}
	if !named {
		t.Errorf("violations do not name iq-wakeup: %v", inv)
	}
}

// TestUninjectableFaultStaysPending: conventional files do not implement
// the injector; the fault must stay pending, not crash or vanish.
func TestUninjectableFaultStaysPending(t *testing.T) {
	k, err := workload.ByName("qsort", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewChecked(hardenedConfig(), k.Prog, regfile.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	cpu.ScheduleFault(harden.Fault{Class: harden.FaultSimpleBit, Cycle: 100, Seed: 1})
	if _, err := cpu.Run(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	outs := cpu.Injections()
	if len(outs) != 1 || outs[0].Injected {
		t.Fatalf("fault against a conventional file should stay uninjected: %+v", outs)
	}
}

func TestNewCheckedRejects(t *testing.T) {
	k, err := workload.ByName("qsort", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.FetchWidth = 0
	if _, err := NewChecked(bad, k.Prog, carfModel()); err == nil {
		t.Error("zero FetchWidth accepted")
	}
	if _, err := NewChecked(DefaultConfig(), nil, carfModel()); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := NewChecked(DefaultConfig(), k.Prog, nil); err == nil {
		t.Error("nil model accepted")
	}
	small := regfile.NewConventional("tiny", 16, 8, 6)
	if _, err := NewChecked(DefaultConfig(), k.Prog, small); err == nil {
		t.Error("model smaller than the architectural register count accepted")
	}
	if _, err := NewChecked(DefaultConfig(), k.Prog, carfModel()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mut := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	bad := []struct {
		name string
		cfg  Config
	}{
		{"zero ROB", mut(func(c *Config) { c.ROBSize = 0 })},
		{"negative front latency", mut(func(c *Config) { c.FrontLatency = -1 })},
		{"FP file too small", mut(func(c *Config) { c.NumFPRegs = 32 })},
		{"three clusters", mut(func(c *Config) { c.Clusters = 3 })},
		{"zero cache ways", mut(func(c *Config) { c.Hierarchy.L1D.Ways = 0 })},
		{"negative spill threshold", mut(func(c *Config) { c.DeadlockSpillAfter = -1 })},
	}
	for _, tc := range bad {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The stress-test configurations must stay valid.
	ok := mut(func(c *Config) { c.BTBEntries = 1; c.RASDepth = 1; c.NumFPRegs = 40 })
	if err := ok.Validate(); err != nil {
		t.Errorf("minimal stress config rejected: %v", err)
	}
}

// goldenRun executes the kernel on the raw VM and returns the final
// integer register file.
func goldenRun(t *testing.T, k workload.Kernel) [isa.NumRegs]uint64 {
	t.Helper()
	m := vm.New(k.Prog)
	if _, err := m.Run(0); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	return m.X
}
