package pipeline

import (
	"fmt"
	"math"

	"carf/internal/cache"
	"carf/internal/harden"
	"carf/internal/isa"
	"carf/internal/metrics"
	"carf/internal/predictor"
	"carf/internal/profile"
	"carf/internal/regfile"
	"carf/internal/vm"
)

const never = int64(math.MaxInt64 / 2)

// srcRef names one source operand: a physical tag in the integer or FP
// file. tag < 0 means the operand does not exist (immediate / x0).
type srcRef struct {
	tag int
	fp  bool
}

// dynInst is one in-flight dynamic instruction.
type dynInst struct {
	// Field order is deliberate: the issue-scan working set — readyAt,
	// seq, execDone, the source refs, and the per-entry flag bytes —
	// fills the first 64 bytes, so the wakeup scan and tryIssue touch
	// one cache line per entry instead of three.

	// readyAt is the earliest cycle this entry can possibly issue, set
	// when an issue attempt fails on an operand or a blocking store. The
	// wakeup scan skips the entry until then. It is exact — the proofs
	// live with operandNextTry — so skipping never delays an issue; zero
	// (pool-fresh) means "try immediately".
	readyAt  int64
	seq      uint64
	execDone int64
	srcs     [2]srcRef

	cluster                uint8
	issued                 bool
	isLoad, isStore, isMem bool
	hasDest                bool
	destFP                 bool
	phantom                bool // wrong-path instruction, squashed at resolution

	destTag int
	oldTag  int // previous mapping of the destination logical register
	memLat  int // D-cache latency, recorded in program order at fetch

	fetchC  int64
	renameC int64
	issueC  int64
	wbDone  int64 // valid once wbOK
	wbOK    bool
	wbStall int64 // cycles spent in Recovery State

	blocksFetch bool // mispredicted: fetch waits for resolution
	mispred     bool // mispredicted (either recovery mode)
	committed   bool

	pc   uint64
	inst isa.Inst
	eff  vm.Effect
}

// Classifier is implemented by register file models that can type a
// value (the content-aware file); used for the Table 4 distribution.
type Classifier interface {
	Classify(v uint64) regfile.ValueType
}

// LiveSampler receives periodic snapshots of the live integer register
// values (the Figure 1/2 oracle). The slice is reused between calls;
// implementations must not retain it.
type LiveSampler interface {
	Sample(values []uint64)
}

// CPU is one simulated hardware context bound to a program and an
// integer register file model.
type CPU struct {
	cfg       Config
	mach      *vm.Machine
	model     regfile.Model
	interrupt func() error

	// progress is the live reporting hook (SetProgress; nil when off —
	// the fast path). progLastCycles/progLastInsts delimit the interval
	// window between consecutive reports.
	progress       func(Progress)
	progLastCycles uint64
	progLastInsts  uint64

	hier   *cache.Hierarchy
	gshare *predictor.Gshare
	btb    *predictor.BTB
	ras    *predictor.RAS

	// Rename state.
	intMap    [isa.NumRegs]int
	fpMap     [isa.NumRegs]int
	retireMap [isa.NumRegs]int
	fpFree    []int

	// Per-tag scoreboard (integer file, indexed by tag).
	intDone  []int64 // producer execute-complete cycle (never if unissued)
	intWB    []int64 // cycle after which the RF holds the value
	intLive  []bool
	intValue []uint64
	intWrote []bool

	// classifier is the model's value classifier when it has one (the
	// content-aware file), cached to avoid a type assertion per use.
	// Classification itself cannot be cached per tag: the content-aware
	// Classify consults the live Short-entry table, so the same value may
	// classify differently at different cycles.
	classifier Classifier

	// Per-tag scoreboard (FP file).
	fpDone []int64
	fpWB   []int64
	fpLive []bool

	// Machine state. The structural queues are ring buffers (O(1) push,
	// pop, and in-order retirement; see instQueue); the issue queues stay
	// index-addressed slices because issue removes from arbitrary
	// positions, compacted in place only on cycles that issue.
	now   int64
	seq   uint64
	rob   instQueue
	intIQ []*dynInst
	fpIQ  []*dynInst
	// intWake/fpWake are queue-level wakeup bounds: no entry in the
	// queue can issue before that cycle, so the wakeup scan is skipped
	// wholesale until then. Maintained from the per-entry readyAt bounds
	// plus a conservative next-cycle recheck whenever anything issued or
	// was budget-limited; rename resets the bound on every insert.
	intWake  int64
	fpWake   int64
	front    instQueue
	lsq      instQueue // in-flight memory operations, program order
	haltSeen bool
	done     bool

	// pool recycles dynInst records between commit/squash and fetch so
	// the steady-state cycle loop performs no heap allocation.
	pool []*dynInst

	// Reusable scratch buffers for per-interval work inside the cycle
	// loop (retirement-map snapshots, live-value sampling).
	archScratch []int
	liveScratch []uint64

	// Functional-unit budget buffers sliced by issue() each cycle.
	intPoolBuf [2]int
	fpPoolBuf  [1]int

	fetchResume   int64    // fetch produces nothing before this cycle
	fetchBlock    *dynInst // unresolved mispredicted control instruction
	lastFetchLine uint64   // I-cache line charged for the current group
	straight      int      // remaining superblock license (vm.Machine.Span)

	// Write-back pending set: the issued-but-unwritten instructions, in
	// seq order — exactly the entries the previous full-ROB scan would
	// act on, in the same order (the ROB is seq-ordered). wbEarliest is
	// the minimum execDone among them; writeback() does nothing when no
	// pending instruction completes before this cycle (such a scan would
	// visit only no-op entries, so skipping changes no statistic).
	wbList     []*dynInst
	wbEarliest int64

	probeTag   int // tag reserved by the dispatch-readiness probe
	probeValid bool

	wrong *wrongState // in-flight wrong-path episode (Config.WrongPath)

	commitsInInterval int
	lastCommitCycle   int64

	readStages  int
	writeStages int
	bypassDepth int

	// Per-cycle register file port budgets (Config.PortContention).
	readPorts  int
	writePorts int
	readsUsed  int
	writesUsed int

	// Value-type clustering (Config.Clusters).
	clusters   int
	tagCluster []uint8
	steerNext  uint8

	sampler      LiveSampler
	samplePeriod int64
	tracer       Tracer

	// Metrics instrumentation (InstallMetrics; all nil when disabled).
	msampler     *metrics.Sampler
	mFetchWidth  *metrics.Histogram
	mIssueWidth  *metrics.Histogram
	mCommitWidth *metrics.Histogram

	// issueHold asks this context to skip issue for the cycle (SMT
	// thread-priority policies).
	issueHold bool
	// longOwned counts this context's live long-typed registers in the
	// (possibly shared) integer file.
	longOwned int

	// mreg is the metrics registry installed by InstallMetrics (nil when
	// metrics are off); hardening failures snapshot it into the bundle.
	mreg *metrics.Registry

	// hard is the hardening state (nil when Config.Harden is all off —
	// the fast path).
	hard *hardenState

	// pp is the attribution state (nil unless InstallProfiler was
	// called — the fast path).
	pp *profState

	stats Stats
}

// Stats aggregates run-level measurements.
type Stats struct {
	Cycles       uint64
	Instructions uint64

	// Integer register file operand traffic (Table 2).
	IntOperands      uint64
	BypassedOperands uint64

	// Source-operand type combinations (Table 4), content-aware runs
	// only. Indexed [simple|short|long][simple|short|long], folded so
	// that [a][b] with a<=b holds the count.
	OperandCombos [3][3]uint64

	// Control flow.
	Branches        uint64
	Mispredicts     uint64
	IndirectResolve uint64 // JALR redirects resolved at execute
	FetchBubbles    uint64 // decode-redirect bubble cycles (BTB misses)

	// Value-type clustering (Config.Clusters = 2).
	CrossClusterOps uint64 // operands forwarded between clusters

	// Wrong-path mode (Config.WrongPath).
	WrongPathFetched  uint64 // phantom instructions fetched
	WrongPathSquashed uint64 // phantom instructions squashed
	Squashes          uint64 // squash events (resolved mispredicts)

	// Structural stalls.
	PortStallCycles     uint64 // register file port contention events
	RenameStallCycles   uint64 // no ROB/IQ/LSQ/tag available
	LongStallCycles     uint64 // issue stalled by long-file pressure
	RecoveryStallCycles uint64 // write-back Recovery State retries
	ForcedSpills        uint64 // hard pseudo-deadlock spills

	// Verification.
	ValueMismatches uint64 // RF reconstruction disagreed with the oracle
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// BypassRate returns the fraction of integer operands served by the
// bypass network instead of a register file read (Table 2).
func (s Stats) BypassRate() float64 {
	if s.IntOperands == 0 {
		return 0
	}
	return float64(s.BypassedOperands) / float64(s.IntOperands)
}

// New builds a CPU running prog with the given integer register file
// organization. The configuration and model must already be valid (see
// Config.Validate and NewChecked, which return errors instead); New
// panics on a config that cannot build a machine.
func New(cfg Config, prog *vm.Program, model regfile.Model) *CPU {
	hier, err := cache.NewHierarchy(cfg.Hierarchy)
	if err != nil {
		panic(fmt.Sprintf("pipeline: New called with unvalidated config (invariant: callers run Config.Validate first): %v", err))
	}
	c := &CPU{
		cfg:    cfg,
		mach:   vm.New(prog),
		model:  model,
		hier:   hier,
		gshare: predictor.NewGshare(cfg.Gshare),
		btb:    predictor.NewBTB(cfg.BTBEntries),
		ras:    predictor.NewRAS(cfg.RASDepth),
	}
	if cfg.Harden.Enabled() {
		c.hard = newHardenState(cfg.Harden, prog)
	}
	c.lastFetchLine = ^uint64(0)
	c.wbEarliest = never
	c.readStages = model.ReadStages()
	c.writeStages = model.WriteStages()
	c.bypassDepth = cfg.BypassDepth
	if c.bypassDepth == 0 {
		c.bypassDepth = c.writeStages
	}
	c.samplePeriod = int64(cfg.SamplePeriod)
	if cfg.PortContention {
		// Every access goes through the model's first array (the whole
		// file conventionally; the Simple file in the content-aware
		// organization, §3.1), so its ports gate the bandwidth.
		spec := model.Files()[0].Spec
		c.readPorts, c.writePorts = spec.ReadPorts, spec.WritePorts
	}

	c.clusters = cfg.Clusters
	if c.clusters < 1 {
		c.clusters = 1
	}

	c.rob.initQueue(cfg.ROBSize)
	c.front.initQueue(3 * cfg.FetchWidth)
	c.lsq.initQueue(cfg.LSQSize)
	c.wbList = make([]*dynInst, 0, cfg.ROBSize)
	c.intIQ = make([]*dynInst, 0, cfg.IntQueue)
	c.fpIQ = make([]*dynInst, 0, cfg.FPQueue)
	c.archScratch = make([]int, 0, isa.NumRegs)

	n := model.NumTags()
	c.tagCluster = make([]uint8, n)
	c.intDone = make([]int64, n)
	c.intWB = make([]int64, n)
	c.intLive = make([]bool, n)
	c.intValue = make([]uint64, n)
	c.intWrote = make([]bool, n)
	c.classifier, _ = model.(Classifier)

	c.fpDone = make([]int64, cfg.NumFPRegs)
	c.fpWB = make([]int64, cfg.NumFPRegs)
	c.fpLive = make([]bool, cfg.NumFPRegs)
	c.fpFree = make([]int, 0, cfg.NumFPRegs)
	for i := cfg.NumFPRegs - 1; i >= 0; i-- {
		c.fpFree = append(c.fpFree, i)
	}

	// Architectural state occupies physical registers from cycle zero.
	for r := 0; r < isa.NumRegs; r++ {
		tag, ok := model.Alloc()
		if !ok {
			panic(fmt.Sprintf("pipeline: register file %s too small for the %d architectural registers (invariant: NewChecked rejects such models)",
				model.Name(), isa.NumRegs))
		}
		v := c.mach.X[r]
		model.ForceWrite(tag, v)
		c.intMap[r], c.retireMap[r] = tag, tag
		c.intDone[tag], c.intWB[tag] = -1000, -1000
		c.intLive[tag], c.intWrote[tag] = true, true
		c.intValue[tag] = v

		ftag := c.allocFP()
		c.fpMap[r] = ftag
		c.fpDone[ftag], c.fpWB[ftag] = -1000, -1000
	}
	return c
}

// SetSampler installs a live-value sampler invoked every period cycles.
func (c *CPU) SetSampler(s LiveSampler, period int) {
	c.sampler = s
	c.samplePeriod = int64(period)
}

// Model returns the integer register file model in use.
func (c *CPU) Model() regfile.Model { return c.model }

// Hierarchy exposes the memory system (stats).
func (c *CPU) Hierarchy() *cache.Hierarchy { return c.hier }

// Gshare exposes the branch predictor (stats).
func (c *CPU) Gshare() *predictor.Gshare { return c.gshare }

func (c *CPU) allocFP() int {
	if len(c.fpFree) == 0 {
		return -1
	}
	t := c.fpFree[len(c.fpFree)-1]
	c.fpFree = c.fpFree[:len(c.fpFree)-1]
	c.fpLive[t] = true
	return t
}

func (c *CPU) freeFP(tag int) {
	c.fpLive[tag] = false
	c.fpDone[tag], c.fpWB[tag] = never, never
	c.fpFree = append(c.fpFree, tag)
}

// SetInterrupt installs a cooperative-abort hook polled periodically
// from the cycle loop: when fn returns a non-nil error the run stops
// and reports it. It exists so callers can wire ctx.Err without
// context appearing anywhere in Config — Config is digested by value
// into scheduler cache keys, and a func field would poison key
// stability. Pass nil to clear. Not safe to call while Run is active.
func (c *CPU) SetInterrupt(fn func() error) { c.interrupt = fn }

// interruptMask spaces interrupt polls: every 4096 cycles keeps the
// check off the hot path (sub-microsecond granularity is pointless for
// multi-second sims) without perturbing any statistic.
const interruptMask = 1<<12 - 1

// Run simulates until the program's HALT commits (or the instruction
// budget is exhausted) and returns the statistics. With hardening
// enabled, the first lockstep divergence or invariant violation ends
// the run with its structured error, and the watchdog converts a
// zero-commit hang into a harden.DeadlockError; without it, a blunt
// idle limit still bounds a hung machine.
func (c *CPU) Run() (Stats, error) {
	const idleLimit = 100000
	var idle int64
	var lastInsts uint64
	watchdog := c.hard != nil && c.hard.wd != nil
	for !c.done {
		c.cycle()
		if c.hard != nil && c.hard.err != nil {
			return c.stats, c.hard.err
		}
		if c.interrupt != nil && c.stats.Cycles&interruptMask == 0 {
			if err := c.interrupt(); err != nil {
				return c.stats, fmt.Errorf("pipeline: run interrupted at cycle %d: %w", c.stats.Cycles, err)
			}
		}
		if c.progress != nil && c.stats.Cycles&progressMask == 0 {
			c.reportProgress(false)
		}
		if watchdog {
			if stalled, tripped := c.hard.wd.Observe(c.stats.Cycles, c.stats.Instructions); tripped {
				return c.stats, &harden.DeadlockError{
					Cycle:           c.stats.Cycles,
					LastCommitCycle: uint64(max64(c.lastCommitCycle, 0)),
					StalledFor:      stalled,
					PC:              c.mach.PC,
					Bundle:          c.buildBundle(),
				}
			}
		} else if c.stats.Instructions == lastInsts {
			idle++
			if idle > idleLimit {
				return c.stats, fmt.Errorf("pipeline: no commit progress for %d cycles at cycle %d (pc %#x)", idleLimit, c.now, c.mach.PC)
			}
		} else {
			idle = 0
			lastInsts = c.stats.Instructions
		}
		if c.cfg.MaxInstructions > 0 && c.stats.Instructions >= c.cfg.MaxInstructions {
			break
		}
	}
	if c.msampler != nil {
		c.msampler.Final(c.stats.Cycles)
	}
	if c.progress != nil {
		c.reportProgress(true)
	}
	// Internal faults (double frees) are recorded instead of panicking;
	// a run that accumulated any did not execute correctly.
	if fr, ok := c.model.(harden.FaultReporter); ok {
		if faults := fr.Faults(); len(faults) > 0 {
			return c.stats, fmt.Errorf("pipeline: %d register file fault(s), first: %s", len(faults), faults[0])
		}
	}
	return c.stats, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Stats returns the statistics accumulated so far.
func (c *CPU) Stats() Stats { return c.stats }

// cycle advances the machine one clock. Stages run in reverse pipeline
// order so same-cycle structural hazards resolve like hardware.
func (c *CPU) cycle() {
	c.readsUsed, c.writesUsed = 0, 0
	instr0, seq0 := c.stats.Instructions, c.seq
	if c.hard != nil && len(c.hard.pending) > 0 {
		c.tryInjectFaults()
	}
	c.commit()
	if c.done {
		return
	}
	c.writeback()
	c.maybeSquash()
	c.issue()
	c.rename()
	c.fetch()
	if c.mCommitWidth != nil {
		c.mCommitWidth.Observe(float64(c.stats.Instructions - instr0))
		c.mFetchWidth.Observe(float64(c.seq - seq0))
	}
	if c.sampler != nil && c.samplePeriod > 0 && c.now%c.samplePeriod == 0 {
		c.sampleLive()
	}
	if f, ok := c.model.(liveLongSampler); ok && c.now%128 == 0 {
		f.SampleLiveLong()
	}
	if c.hard != nil && c.hard.err == nil {
		if n := c.hard.opts.SweepEvery; n > 0 && c.now > 0 && uint64(c.now)%n == 0 {
			if vs := c.checkInvariants(); len(vs) > 0 {
				c.hard.err = &harden.InvariantError{Cycle: uint64(c.now), Violations: vs, Bundle: c.buildBundle()}
				c.done = true
			}
		}
	}
	if c.pp != nil {
		c.profCycle(int(c.stats.Instructions - instr0))
	}
	c.now++
	c.stats.Cycles++
	if c.msampler != nil {
		c.msampler.Tick(c.stats.Cycles)
	}
}

type liveLongSampler interface{ SampleLiveLong() }

func (c *CPU) sampleLive() {
	if c.liveScratch == nil {
		c.liveScratch = make([]uint64, 0, len(c.intValue))
	}
	values := c.liveScratch[:0]
	for tag := range c.intValue {
		if c.intLive[tag] && c.intWrote[tag] && c.intWB[tag] <= c.now {
			values = append(values, c.intValue[tag])
		}
	}
	c.liveScratch = values[:0]
	c.sampler.Sample(values)
}

// ---------- Commit ----------

func (c *CPU) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.rob.Len() > 0; n++ {
		in := c.rob.Front()
		if !in.wbOK || in.wbDone >= c.now {
			return
		}
		c.assertNoPhantomCommit(in)
		c.rob.PopFront()
		in.committed = true
		c.stats.Instructions++
		c.lastCommitCycle = c.now
		if c.pp != nil {
			c.pp.prof.PCs.OnCommit(in.pc)
		}
		if c.hard != nil {
			if err := c.checkCommit(in); err != nil {
				c.hard.err = err
				c.done = true
				return
			}
		}
		if c.tracer != nil {
			c.tracer.Trace(TraceEvent{
				Seq: in.seq, PC: in.pc, Inst: in.inst,
				Fetch: in.fetchC, Rename: in.renameC, Issue: in.issueC,
				ExecDone: in.execDone, WBDone: in.wbDone, Commit: c.now,
				Mispredicted: in.mispred,
			})
		}

		if in.isMem {
			c.removeLSQ(in)
		}

		if in.hasDest {
			if in.destFP {
				if in.oldTag >= 0 {
					c.freeFP(in.oldTag)
				}
			} else {
				c.retireMap[in.inst.Rd] = in.destTag
				if in.oldTag >= 0 {
					if c.model.TypeOf(in.oldTag) == regfile.TypeLong {
						c.longOwned--
					}
					c.model.Free(in.oldTag)
					c.intLive[in.oldTag] = false
					c.intWrote[in.oldTag] = false
					c.intDone[in.oldTag], c.intWB[in.oldTag] = never, never
				}
			}
		}

		c.commitsInInterval++
		if c.commitsInInterval >= c.cfg.ROBSize {
			c.commitsInInterval = 0
			arch := c.archScratch[:0]
			for _, t := range c.retireMap {
				arch = append(arch, t)
			}
			c.model.OnRobInterval(arch)
		}

		halt := in.eff.Halt
		c.freeDyn(in)
		if halt {
			c.done = true
			return
		}
	}
}

// removeLSQ retires the committing memory operation. Commit is in
// program order and the LSQ is seq-ordered, so the op is the LSQ head;
// the scan is a defensive fallback only.
func (c *CPU) removeLSQ(in *dynInst) {
	if c.lsq.Len() > 0 && c.lsq.Front() == in {
		c.lsq.PopFront()
		return
	}
	for i, n := 0, c.lsq.Len(); i < n; i++ {
		if c.lsq.At(i) == in {
			c.lsq.RemoveAt(i)
			return
		}
	}
}

// ---------- Write-back ----------

func (c *CPU) writeback() {
	// Attempt write-back for every executed, un-written instruction.
	// The pending set holds exactly those instructions in seq order —
	// the order the previous full-ROB scan visited them — so the whole
	// ROB never needs walking. Nothing at all happens on cycles where no
	// pending instruction has completed yet.
	if len(c.wbList) == 0 || c.wbEarliest >= c.now {
		return
	}
	earliest := never
	kept := c.wbList[:0]
	for _, in := range c.wbList {
		if in.execDone >= c.now {
			kept = append(kept, in)
			if in.execDone < earliest {
				earliest = in.execDone
			}
			continue
		}
		if !in.hasDest {
			in.wbOK = true
			in.wbDone = in.execDone // control/store: complete at execute
			continue
		}
		if in.destFP {
			in.wbOK = true
			in.wbDone = in.execDone + int64(1) // single-stage FP write-back
			c.fpWB[in.destTag] = in.wbDone
			continue
		}
		if c.writePorts > 0 && c.writesUsed >= c.writePorts {
			// Out of write ports this cycle; the result retries.
			c.stats.PortStallCycles++
			kept = append(kept, in)
			if in.execDone < earliest {
				earliest = in.execDone
			}
			continue
		}
		if c.pp != nil {
			c.pp.writePC = in.pc
		}
		if c.model.TryWrite(in.destTag, in.eff.RdValue) {
			c.writesUsed++
			if c.model.TypeOf(in.destTag) == regfile.TypeLong {
				c.longOwned++
			}
			in.wbOK = true
			in.wbDone = in.execDone + int64(c.writeStages)
			if in.wbDone < c.now {
				in.wbDone = c.now // recovery-delayed writes land late
			}
			c.intWB[in.destTag] = in.wbDone
			c.intWrote[in.destTag] = true
			continue
		}
		// Recovery State: no free long register. Retry every cycle;
		// after DeadlockSpillAfter cycles at the ROB head, spill.
		in.wbStall++
		c.stats.RecoveryStallCycles++
		if c.rob.Front() == in && in.wbStall > int64(c.cfg.DeadlockSpillAfter) {
			c.model.ForceWrite(in.destTag, in.eff.RdValue)
			c.stats.ForcedSpills++
			if c.pp != nil {
				c.pp.spilled = true
			}
			in.wbOK = true
			in.wbDone = c.now + int64(c.writeStages)
			c.intWB[in.destTag] = in.wbDone
			c.intWrote[in.destTag] = true
			continue
		}
		kept = append(kept, in)
		if in.execDone < earliest {
			earliest = in.execDone
		}
	}
	c.wbList, c.wbEarliest = kept, earliest
}

// ---------- Issue / execute ----------

// operandStatus reports whether a source is available to an instruction
// issuing this cycle, and whether it arrives through the bypass network.
// The register file supports write-then-read within a cycle (standard
// internal forwarding), so readiness is gated by the expected write
// completion (execDone + write stages); a Recovery-State-delayed write
// is at most optimistic by the stall length, which the issue stall of
// §3.2 makes rare.
func (c *CPU) operandStatus(s srcRef, cluster uint8) (ready, viaBypass, crossed bool) {
	var done, wb int64
	if s.fp {
		done = c.fpDone[s.tag]
		wb = done + 1
		if w := c.fpWB[s.tag]; w < wb {
			wb = w
		}
	} else {
		done = c.intDone[s.tag]
		wb = done + int64(c.writeStages)
		if w := c.intWB[s.tag]; w < wb {
			wb = w
		}
		if c.clusters > 1 && c.tagCluster[s.tag] != cluster {
			// Inter-cluster forwarding adds one cycle (§6).
			done++
			wb++
			crossed = true
		}
	}
	r := int64(c.readStages)
	if done > c.now+r {
		return false, false, crossed // producer result not catchable yet
	}
	gap := c.now + r + 1 - done
	if wb <= c.now+r {
		// In the register file by the time the read stages complete.
		// The most recent results still ride the bypass in hardware.
		if gap <= int64(c.bypassDepth) {
			return true, true, crossed
		}
		return true, false, crossed
	}
	if gap <= int64(c.bypassDepth) {
		return true, true, crossed
	}
	return false, false, crossed // bypass window missed, RF not yet written
}

// operandNextTry computes the earliest cycle the given not-ready source
// can satisfy operandStatus — the issue-queue wakeup time. It is exact,
// mirroring operandStatus case by case:
//
//   - Producer unissued (done == never): it can issue next cycle at the
//     soonest, so recheck every cycle until it does.
//   - Result not yet catchable (done > now + readStages): first ready at
//     done - readStages, where the bypass gap is 1 <= bypassDepth. The
//     gap only grows with time, so it cannot have been ready earlier.
//   - Bypass window missed with the register file write still pending:
//     ready again exactly when the write lands. The effective write
//     cycle is done + writeStages (FP: done + 1) — writeback may clamp
//     the architectural wbDone later under Recovery-State delay, but
//     operandStatus reads min(done + stages, recorded WB), which the
//     clamp can only leave at done + stages.
//
// Cross-cluster sources see done shifted by the forwarding cycle before
// any of the cases, exactly as operandStatus applies it.
func (c *CPU) operandNextTry(s srcRef, cluster uint8) int64 {
	var done, stages int64
	if s.fp {
		done = c.fpDone[s.tag]
		stages = 1
	} else {
		done = c.intDone[s.tag]
		stages = int64(c.writeStages)
		if c.clusters > 1 && c.tagCluster[s.tag] != cluster {
			done++
		}
	}
	if done >= never {
		return c.now + 1
	}
	r := int64(c.readStages)
	if done > c.now+r {
		return done - r
	}
	return done + stages - r
}

// loadBlocked reports whether an older overlapping store delays the
// load. forwarded is true when the value comes from the store queue.
// When blocked, retryAt is the earliest cycle the blocking store stops
// blocking: stores not yet issued force a next-cycle recheck; issued
// ones unblock exactly when their data is catchable by the load's read
// stages (execDone <= now + readStages).
func (c *CPU) loadBlocked(ld *dynInst) (blocked, forwarded bool, retryAt int64) {
	lo, hi := ld.eff.Addr, ld.eff.Addr+uint64(ld.eff.Size)
	// The LSQ is seq-ordered, so binary-search the load's own position
	// and walk backwards from there: same visit order over the older
	// entries as the full scan, without stepping over the younger suffix.
	i, j := 0, c.lsq.Len()
	for i < j {
		mid := int(uint(i+j) >> 1)
		if c.lsq.At(mid).seq < ld.seq {
			i = mid + 1
		} else {
			j = mid
		}
	}
	for i--; i >= 0; i-- {
		st := c.lsq.At(i)
		if !st.isStore {
			continue
		}
		sLo, sHi := st.eff.Addr, st.eff.Addr+uint64(st.eff.Size)
		if lo < sHi && sLo < hi {
			// Youngest older overlapping store.
			if !st.issued {
				return true, false, c.now + 1
			}
			if st.execDone > c.now+int64(c.readStages) {
				return true, false, st.execDone - int64(c.readStages)
			}
			return false, true, 0
		}
	}
	return false, false, 0
}

func (c *CPU) issue() {
	// §3.2 pseudo-deadlock prevention: stall issue while the Long file
	// is nearly exhausted. The oldest instruction still issues so that
	// commits keep draining and freeing Long entries (otherwise the
	// prevention itself could deadlock the machine).
	onlyHead := false
	if c.issueHold {
		c.stats.LongStallCycles++
		onlyHead = true
	}
	if c.model.LongStall(c.cfg.longStallThreshold()) {
		c.stats.LongStallCycles++
		onlyHead = true
	}
	if onlyHead && c.pp != nil {
		c.pp.longIssue = true
	}
	issued := 0
	intFU := c.cfg.IntUnits
	fpFU := c.cfg.FPUnits
	dports := c.cfg.DCachePorts

	// The per-cluster budgets live in fixed CPU-owned buffers so slicing
	// them allocates nothing.
	intPool := c.intPoolBuf[:1]
	intPool[0] = intFU
	if c.clusters == 2 {
		intPool = c.intPoolBuf[:2]
		intPool[0], intPool[1] = intFU/2, intFU-intFU/2
	}
	fpPool := c.fpPoolBuf[:1]
	fpPool[0] = fpFU
	c.issueQueue(&c.intIQ, &c.intWake, &issued, intPool, &dports, onlyHead)
	c.issueQueue(&c.fpIQ, &c.fpWake, &issued, fpPool, &dports, onlyHead)
	if c.mIssueWidth != nil {
		c.mIssueWidth.Observe(float64(issued))
	}
}

// issueQueue wakes up ready instructions in age order. Entries that
// issue are nilled out and the queue is compacted in one pass — but
// only on cycles where something actually issued, so a stalled queue
// costs a read-only scan instead of rewriting (and write-barriering)
// every element every cycle. The scan itself is skipped while the
// queue-level wake bound proves no entry can issue yet: every entry
// either carries an exact readyAt in the future, or failed for a
// budget/structural reason that is rechecked the next cycle. A skipped
// scan performs no tool calls into the model and touches no statistic,
// so skipping is invisible; PortContention retries keep the bound at
// next-cycle because a port-limited attempt leaves readyAt in the past.
func (c *CPU) issueQueue(queue *[]*dynInst, wake *int64, issued *int, fuPool []int, dports *int, onlyHead bool) {
	if *wake > c.now {
		return
	}
	q := *queue
	removed := 0
	minNext := never
	for i, in := range q {
		if in.issued {
			// Issued entries are compacted out below; a stray one (can
			// only appear through a future bug) is dropped, matching the
			// pre-ring behaviour.
			q[i] = nil
			removed++
			continue
		}
		if onlyHead && (c.rob.Len() == 0 || c.rob.Front() != in) {
			// Eligible again as soon as the long-pressure hold clears.
			minNext = c.now + 1
			continue
		}
		if in.readyAt > c.now {
			// A prior attempt proved this entry cannot issue before
			// readyAt; an attempt now would fail on the same operand or
			// store with no side effects, so skipping is invisible.
			if in.readyAt < minNext {
				minNext = in.readyAt
			}
			continue
		}
		// cluster is 0 or 1 and the pool length 1 or 2, so masking
		// replaces the general modulo.
		fu := &fuPool[int(in.cluster)&(len(fuPool)-1)]
		if *issued >= c.cfg.IssueWidth || *fu <= 0 {
			minNext = c.now + 1 // budget renews next cycle
			continue
		}
		if !c.tryIssue(in, dports) {
			// Operand/store failures recorded an exact future readyAt;
			// cache-port and read-port failures leave it in the past and
			// must recheck next cycle.
			next := in.readyAt
			if next <= c.now {
				next = c.now + 1
			}
			if next < minNext {
				minNext = next
			}
			continue
		}
		*issued++
		*fu--
		q[i] = nil
		removed++
		// Issuing consumes shared budgets and can unblock loads; the
		// queue must be rescanned next cycle.
		minNext = c.now + 1
	}
	*wake = minNext
	if removed == 0 {
		return
	}
	kept := q[:0]
	for _, in := range q {
		if in != nil {
			kept = append(kept, in)
		}
	}
	*queue = kept
}

// tryIssue issues in if all its operands and structural resources are
// available this cycle.
func (c *CPU) tryIssue(in *dynInst, dports *int) bool {
	if in.isMem && *dports <= 0 {
		return false
	}
	type opRead struct {
		s      srcRef
		bypass bool
	}
	var reads [2]opRead
	nReads := 0
	rfReads := 0
	crossings := 0
	for _, s := range in.srcs {
		if s.tag < 0 {
			continue
		}
		ready, bypass, crossed := c.operandStatus(s, in.cluster)
		if !ready {
			in.readyAt = c.operandNextTry(s, in.cluster)
			return false
		}
		if !bypass && !s.fp {
			rfReads++
		}
		if crossed {
			crossings++
		}
		reads[nReads] = opRead{s, bypass}
		nReads++
	}
	// Memory-order check after operand readiness: both predicates are
	// side-effect-free, so the order only decides which one prices the
	// retry hint.
	var forwarded bool
	if in.isLoad {
		blocked, fwd, retryAt := c.loadBlocked(in)
		if blocked {
			in.readyAt = retryAt
			return false
		}
		forwarded = fwd
	}
	if c.readPorts > 0 && c.readsUsed+rfReads > c.readPorts {
		// Not enough read ports left this cycle.
		c.stats.PortStallCycles++
		return false
	}
	c.readsUsed += rfReads
	c.stats.CrossClusterOps += uint64(crossings)

	// Issue accepted: account operand reads and schedule execution.
	for i := 0; i < nReads; i++ {
		rd := reads[i]
		if rd.s.fp {
			continue // FP file traffic is outside the evaluation
		}
		c.stats.IntOperands++
		if rd.bypass {
			c.stats.BypassedOperands++
		} else {
			c.model.Read(rd.s.tag)
			c.verifyRead(rd.s.tag)
		}
	}
	c.recordOperandCombo(in)

	lat := int64(c.cfg.IntLatency)
	if in.inst.Op.Class() == isa.ClassFPU {
		lat = int64(c.cfg.FPLatency)
	}
	if in.isLoad {
		*dports--
		mem := int64(1)
		if !forwarded {
			mem = int64(in.memLat)
		}
		lat = 1 + mem // AGU + memory
	}
	if in.isStore {
		// Address generation; the write drains through the store
		// buffer, so a (fetch-time recorded) miss does not stall the
		// pipeline, but the store still claims a cache port.
		*dports--
		lat = 1
	}

	in.issued = true
	in.issueC = c.now
	in.execDone = c.now + int64(c.readStages) + lat
	// Enter the write-back pending set, kept seq-sorted (issue order is
	// age order within a queue but not across the int/FP queues or
	// across cycles; the set is small, so the backward ripple is cheap).
	c.wbList = append(c.wbList, in)
	for i := len(c.wbList) - 1; i > 0 && c.wbList[i-1].seq > in.seq; i-- {
		c.wbList[i], c.wbList[i-1] = c.wbList[i-1], c.wbList[i]
	}
	if in.execDone < c.wbEarliest {
		c.wbEarliest = in.execDone
	}
	if in.hasDest {
		if in.destFP {
			c.fpDone[in.destTag] = in.execDone
		} else {
			c.intDone[in.destTag] = in.execDone
		}
	}
	if in.isMem {
		// §3.2: load/store effective addresses may be installed in the
		// Short file, in parallel with the ALU/AGU stage.
		c.model.NoteAddress(in.eff.Addr)
	}
	if in.blocksFetch {
		// Fetch restarts once the branch resolves in execute.
		resume := in.execDone + 1
		if resume > c.fetchResume {
			c.fetchResume = resume
		}
		c.fetchBlock = nil
		if c.pp != nil {
			c.pp.resume = profile.CatBranch
		}
	}
	return true
}

// verifyRead checks the register file reconstruction against the
// functional oracle (a safety net over the content-aware encodings).
func (c *CPU) verifyRead(tag int) {
	v, ok := c.model.ReadValue(tag)
	if !ok {
		return // conventional files may not retain values pre-write
	}
	if c.intWrote[tag] && v != c.intValue[tag] {
		c.stats.ValueMismatches++
	}
}

// recordOperandCombo folds the instruction's integer source value types
// into the Table 4 histogram (content-aware runs only).
func (c *CPU) recordOperandCombo(in *dynInst) {
	if c.classifier == nil {
		return
	}
	var types [2]regfile.ValueType
	n := 0
	for _, s := range in.srcs {
		if s.tag < 0 || s.fp {
			continue
		}
		types[n] = c.classifier.Classify(c.intValue[s.tag])
		n++
	}
	switch n {
	case 1:
		c.stats.OperandCombos[types[0]][types[0]]++
	case 2:
		a, b := types[0], types[1]
		if a > b {
			a, b = b, a
		}
		c.stats.OperandCombos[a][b]++
	}
}
