package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"carf"
	"carf/internal/core"
	"carf/internal/experiments"
	"carf/internal/harden"
	"carf/internal/metrics"
	"carf/internal/pipeline"
	"carf/internal/regfile"
	"carf/internal/sched"
	"carf/internal/serve"
	"carf/internal/store"
	"carf/internal/workload"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 50, false},
		{19, 50, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := tail(xs, "ms")
	if s.Note != "p90" || s.N != 100 || s.Value < 90 || s.Value > 91 {
		t.Errorf("tail of 1..100 = %+v, want p90 near 90", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50}, // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
		{ID: 6, Parent: 4, Name: "grandchild", Start: 62, End: 64},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"parent":     100 - 40 - 10 - 10, // [10,50) [60,70) [90,100) covered
		"child":      20 + 30 + (10 - 2) + 30,
		"grandchild": 2,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if c := covered(0, 10, nil); c != 0 {
		t.Errorf("covered with no children = %d", c)
	}
}

// TestPlanSeedDeterminism: the same seed plans the same rounds; another
// seed plans another order over the same operations.
func TestPlanSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		for r := 0; r < 3; r++ {
			a, b, c := plan(w, 1, r), plan(w, 1, r), plan(w, 2, r)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s round %d: seed 1 planned two different rounds", w.Name, r)
			}
			if reflect.DeepEqual(a.StudyCold, c.StudyCold) || reflect.DeepEqual(a.Misses, c.Misses) ||
				reflect.DeepEqual(a.Hits, c.Hits) {
				t.Errorf("%s round %d: seeds 1 and 2 planned the same order", w.Name, r)
			}
			specs := serveSpecs(w.ServeKernel)
			for _, p := range []roundPlan{a, c} {
				if !sameMultiset(p.StudyCold, experiments.Names()) {
					t.Errorf("%s round %d: cold pass does not run every experiment once", w.Name, r)
				}
				for _, order := range p.StudyWarm {
					if !sameMultiset(order, experiments.Names()) {
						t.Errorf("%s round %d: warm pass does not run every experiment once", w.Name, r)
					}
				}
				for _, sw := range p.Sweeps {
					if len(sw) != 2*len(w.Kernels) {
						t.Errorf("%s round %d: sweep has %d operations", w.Name, r, len(sw))
					}
				}
				if !sameSpecs(p.Misses, specs) {
					t.Errorf("%s round %d: misses are not every service spec once", w.Name, r)
				}
				for _, d := range p.Disk {
					if !sameSpecs(d, specs) {
						t.Errorf("%s round %d: a restarted daemon is not asked for every spec once", w.Name, r)
					}
				}
			}
		}
	}
	seen := map[any]bool{}
	for _, s := range serveSpecs("histo") {
		if err := (carf.Config{Organization: carf.Organization(s.Organization), DPlusN: s.DPlusN,
			ShortRegs: s.ShortRegs, LongRegs: s.LongRegs, Scale: s.Scale}).Validate(); err != nil {
			t.Errorf("invalid service spec %+v: %v", s, err)
		}
		if seen[s] {
			t.Errorf("service spec %+v repeats", s)
		}
		seen[s] = true
	}
}

func sameSpecs(a, b []serve.SubmitRequest) bool {
	var x, y []string
	for _, s := range a {
		x = append(x, fmt.Sprint(s))
	}
	for _, s := range b {
		y = append(y, fmt.Sprint(s))
	}
	return sameMultiset(x, y)
}

func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	n := map[string]int{}
	for _, s := range a {
		n[s]++
	}
	for _, s := range b {
		n[s]--
	}
	for _, v := range n {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestSeedOrderSameOutputs runs the first sweep of two seeds' plans and
// checks both against the recorded outcomes.
func TestSeedOrderSameOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	w := workloads[0]
	for _, seed := range []uint64{1, 2} {
		sweep := plan(w, seed, 0).Sweeps[0]
		b := &bench{exp: exp, simNs: map[simOp][]float64{}}
		b.simSweep(sweep, nil, 0)
		if a, f, errs := b.chk.counts(); f != 0 || a != len(sweep) {
			t.Errorf("seed %d: %d of %d operations failed: %v", seed, f, a, errs)
		}
	}
}

// TestTracedRunIsFaithful: the timing wrappers change nothing the
// simulator computes.
func TestTracedRunIsFaithful(t *testing.T) {
	k, err := workload.ByName("hashprobe", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, org := range orgs {
		run := func(wrap bool) (pipeline.Stats, []regfile.FileActivity) {
			inner := newModel(org)
			m := inner
			if wrap {
				m, _, err = wrapModel(inner)
				if err != nil {
					t.Fatal(err)
				}
			}
			cpu, err := pipeline.NewChecked(pipeline.DefaultConfig(), k.Prog, m)
			if err != nil {
				t.Fatal(err)
			}
			st, err := cpu.Run()
			if err != nil {
				t.Fatal(err)
			}
			return st, inner.Files()
		}
		plainSt, plainFiles := run(false)
		tracedSt, tracedFiles := run(true)
		if !reflect.DeepEqual(plainSt, tracedSt) {
			t.Errorf("%s: traced stats %+v, untraced %+v", org, tracedSt, plainSt)
		}
		if !reflect.DeepEqual(plainFiles, tracedFiles) {
			t.Errorf("%s: traced file activity differs", org)
		}
	}

	// A traced study pass (observer plus timing tier) renders the same
	// bytes as an untraced one, under another submission order.
	subset := []string{"table2", "fig8", "table3", "fig9"}
	reversed := []string{"fig9", "table3", "fig8", "table2"}
	plain, err := studyPass(t.TempDir(), subset, nil, 0, "cold")
	if err != nil {
		t.Fatal(err)
	}
	traced, err := studyPass(t.TempDir(), reversed, newTracer(), 0, "cold")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range subset {
		if plain.errs[e] != nil || traced.errs[e] != nil {
			t.Fatalf("%s: %v / %v", e, plain.errs[e], traced.errs[e])
		}
		if plain.texts[e] != traced.texts[e] {
			t.Errorf("%s: traced render differs from untraced", e)
		}
	}
	if len(traced.tier.puts) == 0 {
		t.Error("timing tier saw no Store calls")
	}
}

// TestWrapperForwardsOptionalInterfaces: a wrapped model implements
// exactly the optional interfaces the pipeline type-asserts that its
// inner model implements.
func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	checks := map[string]func(any) bool{
		"Classifier":      func(v any) bool { _, ok := v.(pipeline.Classifier); return ok },
		"SampleLiveLong":  func(v any) bool { _, ok := v.(interface{ SampleLiveLong() }); return ok },
		"FaultReporter":   func(v any) bool { _, ok := v.(harden.FaultReporter); return ok },
		"Checker":         func(v any) bool { _, ok := v.(harden.Checker); return ok },
		"Injector":        func(v any) bool { _, ok := v.(harden.Injector); return ok },
		"RegisterMetrics": func(v any) bool { _, ok := v.(interface{ RegisterMetrics(*metrics.Registry) }); return ok },
		"WriteReporter":   func(v any) bool { _, ok := v.(regfile.WriteReporter); return ok },
	}
	for _, inner := range []regfile.Model{core.New(core.DefaultParams()), regfile.Baseline()} {
		wrapped, _, err := wrapModel(inner)
		if err != nil {
			t.Fatal(err)
		}
		for name, has := range checks {
			if has(inner) != has(wrapped) {
				t.Errorf("%T: wrapper implements %s = %v, inner = %v", inner, name, has(wrapped), has(inner))
			}
		}
	}
}

// TestTimedTierKeepsLeases: SetTier wires the lease through the timing
// tier, so a miss still claims the store's cross-process lease.
func TestTimedTierKeepsLeases(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), Schema: "perfbench-test/v1", Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var tier sched.Tier = &timedTier{inner: st}
	if _, ok := tier.(sched.Locker); !ok {
		t.Fatal("timedTier does not implement sched.Locker")
	}
	s := sched.New(1)
	s.SetTier(tier)
	if _, _, err := s.DoCtx(context.Background(), sched.KeyOf("k"), "k", true, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if n := st.Stats().LeasesAcquired; n != 1 {
		t.Errorf("leases acquired through the timing tier = %d, want 1", n)
	}
}

// TestBenchmarkJSON: BENCHMARK.json parses, has exactly the contract's
// keys, and lists the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	if !sameMultiset(keys, []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}) {
		t.Errorf("top-level keys %v", keys)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"perfbench"}) || len(doc.Command) == 0 {
		t.Errorf("paths %v command %v", doc.Paths, doc.Command)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d = %+v, program has %+v", i, w, workloads[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}
