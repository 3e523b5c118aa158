package pipeline

// Progress is one live snapshot of an executing simulation, handed to
// the hook installed with SetProgress: cumulative totals, the delta
// since the previous report (the "interval window"), the structural
// queue occupancies at the report cycle, and the register file write
// mix. Reports are advisory — producing them never changes a single
// statistic, so a run's results are bit-identical with the hook on or
// off.
type Progress struct {
	Cycles       uint64
	Instructions uint64

	// Interval window: deltas since the previous report (or since cycle
	// zero for the first). IntervalIPC is the window's throughput —
	// phase behaviour that the cumulative IPC smooths away.
	IntervalCycles       uint64
	IntervalInstructions uint64
	IntervalIPC          float64

	// Structure occupancies at the report cycle.
	ROB   int
	IntIQ int
	FPIQ  int
	LSQ   int

	// Writes is the cumulative per-array register file write traffic in
	// Model.Files() order: the whole file for conventional organizations
	// (index 0), and the Simple/Short/Long sub-files for the
	// content-aware one — the live write-class mix.
	Writes [3]uint64

	// Final marks the closing report Run emits after the last cycle; its
	// totals equal the returned Stats.
	Final bool
}

// SetProgress installs a live progress hook invoked periodically from
// the cycle loop (every progressMask+1 cycles) and once more when Run
// completes (Final). Like SetInterrupt, the hook is installed
// out-of-band rather than through Config: Config is digested by value
// into scheduler cache keys, and a func field would poison key
// stability (DESIGN.md §12). The hook runs on the simulating goroutine
// and must return quickly; pass nil to clear. Not safe to call while
// Run is active.
func (c *CPU) SetProgress(fn func(Progress)) { c.progress = fn }

// progressMask spaces progress reports the same way interruptMask
// spaces interrupt polls: every 4096 cycles, a few hundred reports per
// wall-clock second at typical simulation speed — callers needing less
// throttle downstream (the scheduler's reporter does).
const progressMask = 1<<12 - 1

// reportProgress builds and delivers one Progress snapshot. Called only
// when c.progress != nil, off the per-cycle hot path.
func (c *CPU) reportProgress(final bool) {
	p := Progress{
		Cycles:       c.stats.Cycles,
		Instructions: c.stats.Instructions,
		ROB:          c.rob.Len(),
		IntIQ:        len(c.intIQ),
		FPIQ:         len(c.fpIQ),
		LSQ:          c.lsq.Len(),
		Final:        final,
	}
	p.IntervalCycles = c.stats.Cycles - c.progLastCycles
	p.IntervalInstructions = c.stats.Instructions - c.progLastInsts
	if p.IntervalCycles > 0 {
		p.IntervalIPC = float64(p.IntervalInstructions) / float64(p.IntervalCycles)
	}
	c.progLastCycles, c.progLastInsts = c.stats.Cycles, c.stats.Instructions
	for i, f := range c.model.Files() {
		if i >= len(p.Writes) {
			break
		}
		p.Writes[i] = f.Writes
	}
	c.progress(p)
}
