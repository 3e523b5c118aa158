package pipeline

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"carf/internal/core"
	"carf/internal/harden"
	"carf/internal/profile"
	"carf/internal/regfile"
	"carf/internal/workload"
)

// The performance work on the cycle loop (instruction pooling, ring
// buffers, the dense fetch index) must not move a single reported
// statistic. This differential gate pins the complete Stats struct —
// IPC numerator and denominator, operand traffic, stall and squash
// counters, the Table 4 combo histogram — plus the CPI stack and fault
// campaign outcomes, for a grid of kernels, register file models, and
// feature configurations, against golden values recorded before the
// optimization. Regenerate (only when a change is *supposed* to alter
// behaviour) with:
//
//	go test ./internal/pipeline -run TestGoldenStats -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden differential stats")

const goldenScale = 0.05

// goldenRecord is everything one configuration reports.
type goldenRecord struct {
	Name  string
	Stats Stats

	// Profiled runs: CPI stack slot counts per category (they sum to
	// Cycles × CommitWidth) and per-PC profile aggregates.
	CPIStack map[string]uint64 `json:",omitempty"`
	PCTotals map[string]uint64 `json:",omitempty"`

	// Fault campaign runs: injection outcomes and the detection error.
	Injected []string `json:",omitempty"`
	Err      string   `json:",omitempty"`
}

func goldenModels() map[string]func() regfile.Model {
	return map[string]func() regfile.Model{
		"baseline":  func() regfile.Model { return regfile.Baseline() },
		"unlimited": func() regfile.Model { return regfile.Unlimited() },
		"carf":      func() regfile.Model { return core.New(core.DefaultParams()) },
		"carf-cam": func() regfile.Model {
			p := core.DefaultParams()
			p.CAMShort = true
			return core.New(p)
		},
		"carf-long6": func() regfile.Model {
			p := core.DefaultParams()
			p.NumLong = 6
			return core.New(p)
		},
		"carf-refcount": func() regfile.Model {
			p := core.DefaultParams()
			p.ShortFree = core.FreeRefCount
			return core.New(p)
		},
	}
}

func runGolden(t *testing.T) []goldenRecord {
	t.Helper()
	var out []goldenRecord
	add := func(rec goldenRecord) { out = append(out, rec) }

	run := func(name, kernel string, cfg Config, model regfile.Model) *CPU {
		t.Helper()
		k, err := workload.ByName(kernel, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		cpu := New(cfg, k.Prog, model)
		if _, err := cpu.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := cpu.Machine().X[workload.ResultReg]; got != k.Expected {
			t.Fatalf("%s: result %#x, want %#x", name, got, k.Expected)
		}
		return cpu
	}

	// Model × kernel grid on the default configuration.
	models := goldenModels()
	for _, mname := range []string{"baseline", "unlimited", "carf", "carf-cam", "carf-long6", "carf-refcount"} {
		for _, kernel := range []string{"histo", "crc64", "qsort", "listchase"} {
			name := kernel + "/" + mname
			cpu := run(name, kernel, DefaultConfig(), models[mname]())
			add(goldenRecord{Name: name, Stats: cpu.Stats()})
		}
	}

	// Feature configurations that exercise the squash, cluster, and
	// port-contention paths.
	wp := DefaultConfig()
	wp.WrongPath = true
	for _, kernel := range []string{"histo", "crc64"} {
		name := kernel + "/carf/wrongpath"
		cpu := run(name, kernel, wp, models["carf"]())
		add(goldenRecord{Name: name, Stats: cpu.Stats()})
	}
	cl := DefaultConfig()
	cl.Clusters = 2
	cpu := run("histo/carf/clusters", "histo", cl, models["carf"]())
	add(goldenRecord{Name: "histo/carf/clusters", Stats: cpu.Stats()})
	pc := DefaultConfig()
	pc.PortContention = true
	cpu = run("histo/baseline/ports", "histo", pc, models["baseline"]())
	add(goldenRecord{Name: "histo/baseline/ports", Stats: cpu.Stats()})

	// Hardened run: lockstep + sweeps + watchdog must stay silent and
	// the statistics must match the unhardened grid entry exactly.
	hc := DefaultConfig()
	hc.Harden = harden.Options{Lockstep: true, SweepEvery: 2048, WatchdogAfter: 50000}
	cpu = run("histo/carf/checked", "histo", hc, models["carf"]())
	add(goldenRecord{Name: "histo/carf/checked", Stats: cpu.Stats()})

	// Profiled run: the CPI stack and per-PC aggregates are reported
	// statistics too.
	k, err := workload.ByName("histo", goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	pcpu := New(DefaultConfig(), k.Prog, models["carf"]())
	prof := pcpu.InstallProfiler()
	if _, err := pcpu.Run(); err != nil {
		t.Fatal(err)
	}
	if err := prof.Stack.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	stack := map[string]uint64{}
	for cat := profile.Category(0); cat < profile.NumCategories; cat++ {
		stack[cat.String()] = prof.Stack.Slots[cat]
	}
	pcTotals := map[string]uint64{}
	for _, e := range prof.PCs.Entries() {
		pcTotals["committed"] += e.Committed
		pcTotals["mispredicts"] += e.Mispredicts
		pcTotals["l2"] += e.L2Misses
		pcTotals["mem"] += e.MemMisses
		pcTotals["imisses"] += e.IMisses
		pcTotals["spills"] += e.Spills
		for _, w := range e.Writes {
			pcTotals["writes"] += w
		}
	}
	add(goldenRecord{Name: "histo/carf/profiled", Stats: pcpu.Stats(), CPIStack: stack, PCTotals: pcTotals})

	// Fault campaign: deterministic injections with lockstep detection;
	// the detection error text (cycle, field, values) is part of the
	// contract.
	fcfg := DefaultConfig()
	fcfg.Harden = harden.Options{Lockstep: true, SweepEvery: 512, WatchdogAfter: 50000}
	fk, err := workload.ByName("crc64", goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	fcpu := New(fcfg, fk.Prog, models["carf"]())
	fcpu.ScheduleFault(harden.Fault{Class: harden.FaultSimpleBit, Cycle: 2000, Seed: 7})
	_, ferr := fcpu.Run()
	rec := goldenRecord{Name: "crc64/carf/fault", Stats: fcpu.Stats()}
	if ferr != nil {
		rec.Err = ferr.Error()
	}
	for _, o := range fcpu.Injections() {
		rec.Injected = append(rec.Injected, goldenOutcome(o))
	}
	add(rec)

	return out
}

func goldenOutcome(o harden.Outcome) string {
	b, _ := json.Marshal(struct {
		Class    string
		Cycle    uint64
		Injected bool
		At       uint64
		Detail   string
	}{o.Fault.Class.String(), o.Fault.Cycle, o.Injected, o.InjectedAt, o.Detail})
	return string(b)
}

func TestGoldenStatsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid is not short")
	}
	path := filepath.Join("testdata", "golden_stats.json")
	got := runGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden records to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden data (run with -update-golden to record): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name {
			t.Fatalf("record %d is %q, golden has %q", i, got[i].Name, want[i].Name)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: statistics diverged from golden record:\n got: %+v\nwant: %+v",
				got[i].Name, got[i], want[i])
		}
	}
}
