package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"carf/internal/core"
	"carf/internal/pipeline"
	"carf/internal/stats"
	"carf/internal/vm"
	"carf/internal/workload"
)

// SMTOut is one two-thread simulation's harvest: per-thread stats plus
// the shared file's average live-long count, captured inside the
// scheduler job so the cached value is a plain immutable snapshot.
type SMTOut struct {
	Stats       [2]pipeline.Stats
	AvgLiveLong float64
}

// MarshalBinary encodes o as its fixed-width fields in declaration
// order, so gob carries SMTOut as one opaque value.
func (o SMTOut) MarshalBinary() ([]byte, error) {
	var b bytes.Buffer
	err := binary.Write(&b, binary.LittleEndian, o)
	return b.Bytes(), err
}

// UnmarshalBinary decodes what MarshalBinary encoded.
func (o *SMTOut) UnmarshalBinary(b []byte) error {
	if len(b) != binary.Size(o) {
		return fmt.Errorf("experiments: SMT run encoding is %d bytes, want %d", len(b), binary.Size(o))
	}
	return binary.Read(bytes.NewReader(b), binary.LittleEndian, o)
}

// runSMT simulates kernels a and b sharing one content-aware file built
// from p under the given thread-priority policy, pooled and memoized
// like every other run (the policy and file parameters key the cache).
func runSMT(a, b workload.Kernel, p core.Params, pol pipeline.SMTPolicy, opt Options) (SMTOut, error) {
	cfg := pipeline.DefaultConfig()
	key := runKey("smt", opt, a.Name+"+"+b.Name, fmt.Sprintf("carf%+v", p), cfg, pol)
	label := runLabel("smt", a.Name+"+"+b.Name, fmt.Sprintf("policy-%v", pol))
	v, prov, err := opt.Sched.DoCtx(opt.Ctx, key, label, true, func() (any, error) {
		model := core.New(p)
		smt := pipeline.NewSMT(cfg, [2]*vm.Program{a.Prog, b.Prog}, model)
		smt.SetPolicy(pol)
		sts, err := smt.Run()
		if err != nil {
			return nil, err
		}
		for i, k := range []workload.Kernel{a, b} {
			if got := smt.Thread(i).Machine().X[workload.ResultReg]; got != k.Expected {
				return nil, fmt.Errorf("smt %s (policy %s): result %#x, want %#x", k.Name, pol, got, k.Expected)
			}
		}
		return SMTOut{Stats: sts, AvgLiveLong: model.Stats().AvgLiveLong()}, nil
	})
	opt.Tally.Record(prov, err)
	if err != nil {
		return SMTOut{}, err
	}
	return as[SMTOut](v, key)
}

// smtPolicyStudy compares the §6 thread-priority policies on a
// long-value-heavy pair with a deliberately small shared Long file
// (pressure makes the policy matter).
func smtPolicyStudy(opt Options) (stats.Table, error) {
	tb := stats.Table{
		Title:  "SMT thread-priority policy under Long-file pressure (crc64+hashprobe, K=24)",
		Header: []string{"policy", "combined IPC", "recovery stalls", "long-stall cycles"},
	}
	ka, err := workload.ByName("crc64", opt.Scale)
	if err != nil {
		return stats.Table{}, err
	}
	kb, err := workload.ByName("hashprobe", opt.Scale)
	if err != nil {
		return stats.Table{}, err
	}
	for _, pol := range []pipeline.SMTPolicy{pipeline.PolicyRoundRobin, pipeline.PolicyLongAware} {
		p := core.DefaultParams()
		p.NumLong = 24
		o, err := runSMT(ka, kb, p, pol, opt)
		if err != nil {
			return stats.Table{}, err
		}
		tb.AddRow(pol.String(),
			stats.F3(o.Stats[0].IPC()+o.Stats[1].IPC()),
			fmt.Sprintf("%d", o.Stats[0].RecoveryStallCycles+o.Stats[1].RecoveryStallCycles),
			fmt.Sprintf("%d", o.Stats[0].LongStallCycles+o.Stats[1].LongStallCycles))
	}
	tb.AddNote("the long-aware policy throttles the thread hoarding Long entries when the shared file runs low")
	return tb, nil
}

// smtPair runs two kernels on the two-thread machine sharing one
// content-aware file and returns a report row: combined throughput, its
// ratio to the sum of the solo runs (the sharing cost), the shared
// file's live-long occupancy, and recovery pressure.
func smtPair(a, b string, opt Options) ([]string, error) {
	ka, err := workload.ByName(a, opt.Scale)
	if err != nil {
		return nil, err
	}
	kb, err := workload.ByName(b, opt.Scale)
	if err != nil {
		return nil, err
	}

	soloA, err := runOne(ka, carfSpec(core.DefaultParams()), opt)
	if err != nil {
		return nil, err
	}
	soloB, err := runOne(kb, carfSpec(core.DefaultParams()), opt)
	if err != nil {
		return nil, err
	}

	o, err := runSMT(ka, kb, core.DefaultParams(), pipeline.PolicyRoundRobin, opt)
	if err != nil {
		return nil, err
	}

	// Per-thread IPC is measured over each thread's own active cycles,
	// so a short thread draining early does not count as idle loss.
	combined := o.Stats[0].IPC() + o.Stats[1].IPC()
	soloSum := soloA.Pstats.IPC() + soloB.Pstats.IPC()
	return []string{
		a + "+" + b,
		stats.F3(combined),
		stats.Pct(combined / soloSum),
		stats.F3(o.AvgLiveLong),
		fmt.Sprintf("%d", o.Stats[0].RecoveryStallCycles+o.Stats[1].RecoveryStallCycles),
	}, nil
}
