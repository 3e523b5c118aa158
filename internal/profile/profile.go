// Package profile is the attribution layer of the simulator: it explains
// where cycles go instead of only counting them. It provides two views
// that the pipeline feeds when profiling is enabled:
//
//   - a CPI stack (CPIStack): every cycle the commit stage has
//     CommitWidth slots; slots that retire an instruction are counted as
//     useful, and the whole deficit of a cycle is charged to exactly one
//     blame category chosen by a priority scheme (see the pipeline's
//     blameCategory). Because each cycle contributes exactly Width slots,
//     the categories always sum to Cycles × Width — the slot-accounting
//     identity CheckIdentity asserts.
//
//   - a per-PC profile (PCProfile): per static instruction, committed
//     counts, branch mispredictions, cache misses by the level that
//     served them, register write value-class outcomes
//     (Simple/Short/Long), and overflow spill events, with top-N hot-spot
//     reporting merged with the disassembly.
//
// Both views are allocation-free on the simulation hot path: the CPI
// stack is a fixed array and the per-PC profile is a dense slice indexed
// by static-instruction number.
package profile

import (
	"encoding/binary"
	"fmt"

	"carf/internal/stats"
)

// Category is one blame bucket of the CPI stack. Every commit-slot
// deficit is charged to exactly one category.
type Category uint8

const (
	// CatCommit counts the useful slots: each retired an instruction.
	CatCommit Category = iota
	// CatBase is execution and dependency latency with no more specific
	// blamable event: the head is executing, or waiting on operands.
	CatBase
	// CatFrontend is fetch starvation from the front end itself: I-cache
	// misses, decode-redirect bubbles, and decode latency.
	CatFrontend
	// CatBranch is branch misprediction recovery: fetch is blocked on an
	// unresolved mispredicted control transfer, or refilling after one
	// resolved.
	CatBranch
	// CatL2 is a ROB-head load whose data access missed the L1D and was
	// served by the L2.
	CatL2
	// CatMem is a ROB-head load served by main memory (L2 miss).
	CatMem
	// CatRFLong is register file Long-sub-file pressure: write-back
	// Recovery-State retries (TryWrite failed, §3.2) and the
	// pseudo-deadlock-prevention issue stall.
	CatRFLong
	// CatRFSpill is a hard pseudo-deadlock overflow spill event
	// (ForceWrite took the spill path).
	CatRFSpill
	// CatRFFree is rename blocked because the register file has no free
	// rename tag (integer or FP free list empty).
	CatRFFree
	// CatStructural is rename blocked by a full ROB, issue queue, or LSQ.
	CatStructural

	// NumCategories bounds the category space.
	NumCategories
)

// String implements fmt.Stringer with the short labels used in exports.
func (c Category) String() string {
	switch c {
	case CatCommit:
		return "commit"
	case CatBase:
		return "base"
	case CatFrontend:
		return "frontend"
	case CatBranch:
		return "branch"
	case CatL2:
		return "l2"
	case CatMem:
		return "mem"
	case CatRFLong:
		return "rf-long"
	case CatRFSpill:
		return "rf-spill"
	case CatRFFree:
		return "rf-free"
	case CatStructural:
		return "structural"
	default:
		return fmt.Sprintf("category(%d)", uint8(c))
	}
}

// Categories lists every category in display order.
func Categories() []Category {
	out := make([]Category, NumCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// CPIStack is the slot-accounting cycle breakdown. Each counted cycle
// contributes exactly Width slots: the committed instructions plus the
// deficit charged to one blame category.
type CPIStack struct {
	Width  int
	Cycles uint64
	Slots  [NumCategories]uint64
}

// cpiStackBytes is the size of CPIStack's binary encoding: Width,
// Cycles and every slot count as 64-bit words.
const cpiStackBytes = 8 * (2 + int(NumCategories))

// MarshalBinary encodes s as fixed-width little-endian words (Width,
// Cycles, then Slots in category order), so gob carries a CPIStack as
// one opaque value.
func (s CPIStack) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, cpiStackBytes)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Width))
	b = binary.LittleEndian.AppendUint64(b, s.Cycles)
	for _, v := range s.Slots {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b, nil
}

// UnmarshalBinary decodes what MarshalBinary encoded.
func (s *CPIStack) UnmarshalBinary(b []byte) error {
	if len(b) != cpiStackBytes {
		return fmt.Errorf("profile: CPI stack encoding is %d bytes, want %d", len(b), cpiStackBytes)
	}
	s.Width = int(int64(binary.LittleEndian.Uint64(b)))
	s.Cycles = binary.LittleEndian.Uint64(b[8:])
	for i := range s.Slots {
		s.Slots[i] = binary.LittleEndian.Uint64(b[16+8*i:])
	}
	return nil
}

// NewCPIStack builds a stack for a commit width.
func NewCPIStack(width int) CPIStack { return CPIStack{Width: width} }

// Account records one cycle: committed useful slots plus the deficit
// charged to blame. The pipeline calls it once per counted cycle.
func (s *CPIStack) Account(committed int, blame Category) {
	s.Cycles++
	s.Slots[CatCommit] += uint64(committed)
	if d := s.Width - committed; d > 0 {
		s.Slots[blame] += uint64(d)
	}
}

// TotalSlots returns the sum over all categories.
func (s *CPIStack) TotalSlots() uint64 {
	var sum uint64
	for _, v := range s.Slots {
		sum += v
	}
	return sum
}

// Instructions returns the committed instructions the stack observed
// (the useful slots). The run's final, uncounted halting cycle can
// commit a few more, so this may trail the pipeline's total slightly.
func (s *CPIStack) Instructions() uint64 { return s.Slots[CatCommit] }

// CheckIdentity asserts the conservation law: the categories sum to
// exactly Cycles × Width. Accounting that loses or double-charges a slot
// breaks it.
func (s *CPIStack) CheckIdentity() error {
	want := s.Cycles * uint64(s.Width)
	if got := s.TotalSlots(); got != want {
		return fmt.Errorf("profile: CPI stack not conservative: %d slots across categories, want %d cycles x %d width = %d",
			got, s.Cycles, s.Width, want)
	}
	return nil
}

// Share returns category c's fraction of all slots (0 when empty).
func (s *CPIStack) Share(c Category) float64 {
	total := s.TotalSlots()
	if total == 0 {
		return 0
	}
	return float64(s.Slots[c]) / float64(total)
}

// CPI returns the overall cycles per committed instruction.
func (s *CPIStack) CPI() float64 {
	if n := s.Instructions(); n > 0 {
		return float64(s.Cycles) / float64(n)
	}
	return 0
}

// Component returns category c's additive contribution to the CPI:
// Slots[c] / (Width × Instructions). The components sum to the CPI, and
// the CatCommit component is the ideal 1/Width.
func (s *CPIStack) Component(c Category) float64 {
	n := s.Instructions()
	if n == 0 {
		return 0
	}
	return float64(s.Slots[c]) / float64(s.Width) / float64(n)
}

// RFStallSlots sums the three register-file categories (Long pressure,
// overflow spills, free-list exhaustion).
func (s *CPIStack) RFStallSlots() uint64 {
	return s.Slots[CatRFLong] + s.Slots[CatRFSpill] + s.Slots[CatRFFree]
}

// Table renders the stack as a report table: slots, share, and CPI
// contribution per category.
func (s *CPIStack) Table(title string) stats.Table {
	t := stats.Table{
		Title:  title,
		Header: []string{"category", "slots", "share", "CPI"},
	}
	for _, c := range Categories() {
		t.AddRow(c.String(),
			fmt.Sprintf("%d", s.Slots[c]),
			stats.Pct(s.Share(c)),
			fmt.Sprintf("%.4f", s.Component(c)))
	}
	t.AddNote("%d cycles x %d commit slots; CPI %.3f; contributions sum to the CPI",
		s.Cycles, s.Width, s.CPI())
	return t
}

// Profiler bundles the two attribution views the pipeline feeds.
type Profiler struct {
	Stack CPIStack
	PCs   *PCProfile
}
