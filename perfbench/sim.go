package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"carf"
	"carf/internal/core"
	"carf/internal/energy"
	"carf/internal/pipeline"
	"carf/internal/regfile"
	"carf/internal/vm"
	"carf/internal/workload"
)

func orgIndex(o carf.Organization) int {
	if o == carf.ContentAware {
		return 1
	}
	return 0
}

func expectOf(r carf.Result) simExpect {
	return simExpect{
		Cycles:         r.Cycles,
		Instructions:   r.Instructions,
		Mispredicts:    r.Mispredicts,
		WritesByType:   r.WritesByType,
		RecoveryStalls: r.RecoveryStalls,
		RegFileEnergy:  r.RegFileEnergy,
	}
}

// simLayer accumulates the traced simulation loop's layer counters.
type simLayer struct {
	buildMs []float64

	vmNs, vmInst float64

	pipeNs, inst, cycles      float64
	mispredicts, l1d, l2      float64
	rfNs, rfCalls, rfInst     [2]float64 // per organization index
	tryWrites, tryFails       float64
	longWrites, carfWrites    float64
	allocBytes, gcCPU, allCPU float64
}

// simSweep runs one closed-loop sweep. Untraced, it records each
// operation's host nanoseconds per simulated instruction.
func (b *bench) simSweep(ops []simOp, tr *tracer, parent int) {
	for _, op := range ops {
		var n uint64
		var d time.Duration
		var err error
		if tr == nil {
			n, d, err = b.simOp(op)
		} else {
			n, d, err = b.tracedSimOp(op, tr, parent)
		}
		b.chk.op(err)
		if err == nil && tr == nil {
			b.simNs[op] = append(b.simNs[op], float64(d)/float64(n))
		}
	}
}

// instPerS summarizes one organization's simulation speed: the median
// nanoseconds per instruction of each kernel over the run's sweeps, so a
// momentary stall of the host does not move it, combined across kernels
// by geometric mean, so every kernel weighs the same.
func instPerS(simNs map[simOp][]float64, org carf.Organization) (float64, int) {
	logSum, k, n := 0.0, 0, 0
	for op, xs := range simNs {
		if op.Org == org {
			logSum += math.Log(median(xs))
			k++
			n += len(xs)
		}
	}
	if k == 0 {
		return 0, 0
	}
	return 1e9 / math.Exp(logSum/float64(k)), n
}

// simOp is the untraced operation: one carf.RunCtx call, checked
// against the recorded outcome.
func (b *bench) simOp(op simOp) (uint64, time.Duration, error) {
	t0 := time.Now()
	r, err := carf.RunCtx(context.Background(), op.Kernel, carf.Config{Organization: op.Org, Scale: simScale})
	d := time.Since(t0)
	if err != nil {
		return 0, d, fmt.Errorf("%s/%s: %w", op.Kernel, op.Org, err)
	}
	return r.Instructions, d, b.exp.checkSim(op.Kernel, string(op.Org), expectOf(r))
}

// newModel builds the register file carf.RunCtx would build for org.
func newModel(org carf.Organization) regfile.Model {
	if org == carf.ContentAware {
		return core.New(core.DefaultParams())
	}
	return regfile.Baseline()
}

// tracedSimOp performs the same simulation as simOp layer by layer:
// kernel build, the functional floor on the same program, and the
// pipeline over a timing-wrapped register file. It returns the pipeline
// time as the operation's duration.
func (b *bench) tracedSimOp(op simOp, tr *tracer, parent int) (uint64, time.Duration, error) {
	id := string(op.Org) + "/" + op.Kernel
	opSpan := tr.open("sim.op", parent, id)
	defer tr.close(opSpan)

	t0 := time.Now()
	k, err := workload.ByName(op.Kernel, simScale)
	t1 := time.Now()
	tr.add("workload.build", opSpan, id, t0, t1)
	if err != nil {
		return 0, 0, err
	}
	b.sim.buildMs = append(b.sim.buildMs, float64(t1.Sub(t0))/1e6)

	m := vm.New(k.Prog)
	n, err := m.Run(0)
	t2 := time.Now()
	tr.add("vm.run", opSpan, id, t1, t2)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: vm: %w", id, err)
	}
	if got := m.X[workload.ResultReg]; got != k.Expected {
		return 0, 0, fmt.Errorf("%s: vm computed %#x, expected %#x", id, got, k.Expected)
	}

	inner := newModel(op.Org)
	model, ms, err := wrapModel(inner)
	if err != nil {
		return 0, 0, err
	}
	t3 := time.Now()
	cpu, err := pipeline.NewChecked(pipeline.DefaultConfig(), k.Prog, model)
	if err != nil {
		return 0, 0, err
	}
	st, err := cpu.Run()
	t4 := time.Now()
	tr.add("pipeline.run", opSpan, id, t3, t4)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", id, err)
	}
	if st.ValueMismatches != 0 {
		return 0, 0, fmt.Errorf("%s: %d register file reconstruction mismatches", id, st.ValueMismatches)
	}
	if got := cpu.Machine().X[workload.ResultReg]; got != k.Expected {
		return 0, 0, fmt.Errorf("%s: computed %#x, expected %#x", id, got, k.Expected)
	}
	got := simExpect{
		Cycles:         st.Cycles,
		Instructions:   st.Instructions,
		Mispredicts:    st.Mispredicts,
		RecoveryStalls: st.RecoveryStallCycles,
		RegFileEnergy:  energy.DefaultTech().Organization(inner.Files()).TotalEnergy,
	}
	if f, ok := inner.(*core.File); ok {
		got.WritesByType = f.Stats().WritesByType
		b.sim.longWrites += float64(got.WritesByType[regfile.TypeLong])
		b.sim.carfWrites += float64(got.WritesByType[0] + got.WritesByType[1] + got.WritesByType[2])
	}
	if err := b.exp.checkSim(op.Kernel, string(op.Org), got); err != nil {
		return 0, 0, err
	}

	s := &b.sim
	oi := orgIndex(op.Org)
	s.vmNs += float64(t2.Sub(t1))
	s.vmInst += float64(n)
	s.pipeNs += float64(t4.Sub(t3))
	s.inst += float64(st.Instructions)
	s.cycles += float64(st.Cycles)
	s.mispredicts += float64(st.Mispredicts)
	s.l1d += float64(cpu.Hierarchy().L1D.Stats().Misses)
	s.l2 += float64(cpu.Hierarchy().L2.Stats().Misses)
	s.rfNs[oi] += ms.estimatedNs()
	s.rfCalls[oi] += float64(ms.calls)
	s.rfInst[oi] += float64(st.Instructions)
	s.tryWrites += float64(ms.tryWrites)
	s.tryFails += float64(ms.tryFails)
	return st.Instructions, t4.Sub(t3), nil
}

// runtimeSample reads the runtime counters the sim layer reports.
type runtimeSample struct{ allocBytes, gcCPU, allCPU float64 }

var runtimeNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(ss[0]), val(ss[1]), val(ss[2])}
}

// simPhase runs the round's sweeps; traced, it also accumulates the
// runtime's allocation and GC counters.
func (b *bench) simPhase(rp roundPlan, tr *tracer, parent int) {
	runtime.GC()
	before := readRuntime()
	phase := tr.open("phase.sim", parent, "")
	for _, sw := range rp.Sweeps {
		b.simSweep(sw, tr, phase)
	}
	tr.close(phase)
	if tr != nil {
		runtime.GC() // settle the GC CPU estimate, which the runtime updates per cycle
		after := readRuntime()
		b.sim.allocBytes += after.allocBytes - before.allocBytes
		b.sim.gcCPU += after.gcCPU - before.gcCPU
		b.sim.allCPU += after.allCPU - before.allCPU
	}
}
