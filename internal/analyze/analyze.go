// Package analyze is the static analysis companion to the simulator:
// it builds a control-flow graph over an assembled EH32 program, runs
// an interval dataflow to resolve load/store addresses, and derives the
// facts an intermittent-computing port needs before a cycle runs —
// write-after-read idempotency hazards (both Clank-sound and per
// checkpoint region), tracking-buffer size bounds, the static τ_store
// Eq. 15 consumes, and a set of lints (uninitialised registers after
// cold boot, dead stores, unreachable code, checkpoint-free store
// loops, calling-convention misuse, guaranteed runtime faults).
//
// The central soundness contract, exercised by the test suite against
// the dynamic fault auditor: every word a strategy.Clank run reports as
// an idempotency violation satisfies Report.HazardWord, at any buffer
// size, watchdog setting or power schedule.
package analyze

import (
	"fmt"

	"ehmodel/internal/asm"
	"ehmodel/internal/isa"
)

// DefaultBoundaries are the SYS codes treated as checkpoint sites for
// the region-scoped analyses: explicit checkpoints (Mementos) and task
// ends (DINO/Chain commit points).
func DefaultBoundaries() []isa.Sys { return []isa.Sys{isa.SysChkpt, isa.SysTaskEnd} }

// Options configures an analysis run. The zero value picks the device
// defaults.
type Options struct {
	// Boundaries are the SYS codes that delimit checkpoint regions;
	// nil means DefaultBoundaries.
	Boundaries []isa.Sys
	// SRAMSize and FRAMSize give the device memory geometry in bytes;
	// zero means the device defaults (8 KiB SRAM, 256 KiB FRAM).
	SRAMSize int
	FRAMSize int
}

// Device memory defaults, matching device.New.
const (
	defaultSRAMSize = 8 << 10
	defaultFRAMSize = 256 << 10
)

// facts are the program facts every pass shares: the CFG, the interval
// fixpoint, and each reachable memory access resolved once against the
// memory layout.
type facts struct {
	code []isa.Instr
	g    *cfg
	fr   *flowResult
	acc  []*accessInfo
	lay  memLayout
}

func newFacts(prog *asm.Program, o Options) (*facts, error) {
	if prog == nil || len(prog.Code) == 0 {
		return nil, fmt.Errorf("analyze: empty program")
	}
	f := &facts{
		code: prog.Code,
		g:    buildCFG(prog.Code),
		acc:  make([]*accessInfo, len(prog.Code)),
		lay:  memLayout{sramSize: uint32(defaultSRAMSize), framSize: uint32(defaultFRAMSize)},
	}
	if o.SRAMSize > 0 {
		f.lay.sramSize = uint32(o.SRAMSize)
	}
	if o.FRAMSize > 0 {
		f.lay.framSize = uint32(o.FRAMSize)
	}
	f.fr = runFlow(f.g)
	for id, b := range f.g.blocks {
		if !f.fr.reach[id] {
			continue
		}
		for pc := b.Start; pc < b.End; pc++ {
			in := prog.Code[pc]
			if in.Op.IsLoad() || in.Op.IsStore() {
				f.acc[pc] = resolveAccess(pc, in, f.fr.stateAt[pc], f.lay)
			}
		}
	}
	return f, nil
}

// reached reports whether the flow fixpoint reached pc's block.
func (f *facts) reached(pc int) bool {
	return pc >= 0 && pc < len(f.code) && f.fr.reach[f.g.blockOf[pc]]
}

// Analyze runs the full static analysis over prog.
func Analyze(prog *asm.Program, o Options) (*Report, error) {
	f, err := newFacts(prog, o)
	if err != nil {
		return nil, err
	}
	bounds := o.Boundaries
	if bounds == nil {
		bounds = DefaultBoundaries()
	}
	boundarySet := make(map[isa.Sys]bool, len(bounds))
	for _, s := range bounds {
		boundarySet[s] = true
	}
	g, acc, lay := f.g, f.acc, f.lay

	r := &Report{
		Prog: prog.Name,
		prog: prog,
		syms: buildSymtab(prog),
	}

	// Global (Clank-sound) pass: no clearing at programmer boundaries,
	// because Clank checkpoints at dynamically chosen points.
	global := runWAR(g, acc, nil, nil, false, lay)
	r.Hazards = global.hazards

	// Region-scoped pass for software checkpointing runtimes.
	region := runWAR(g, acc, boundarySet, nil, true, lay)
	r.RegionHazards = region.hazards
	r.Region = RegionStats{
		Hazards:        len(region.hazards),
		PeakReadWords:  region.peakRead,
		PeakWriteWords: region.peakWrite,
	}

	readFoot, storeFoot := footprints(g, f.fr, acc, lay)
	r.Clank = ClankBound{
		ReadFirstEntries:  readFoot.size(),
		WriteFirstEntries: storeFoot.size(),
	}

	// Membership index for HazardWord.
	r.hazSet = make(map[uint32]struct{})
	for _, h := range r.Hazards {
		if h.Top {
			r.hazTop = true
			break
		}
		for _, w := range h.Words {
			r.hazSet[w] = struct{}{}
		}
	}

	r.Loops = analyzeLoops(g, boundarySet)
	r.lintPass(g, f.fr, acc, readFoot, noBoundaryBefore(g, boundarySet))
	return r, nil
}
