package analyze

import (
	"testing"

	"ehmodel/internal/cpu"
	"ehmodel/internal/isa"
)

// TestLoopPricingConvention pins the back-edge convention the lint
// loop pricer uses: CyclesPerIter prices one *completed* iteration,
// i.e. every body instruction at its not-taken cost plus the loop
// terminator at its loop-continuing (taken, for a bottom-tested loop)
// cost. The final exit iteration is deliberately excluded — bounding
// it is the WCEC pass's job, which prices trips·CyclesPerIter plus
// the exit suffix separately.
func TestLoopPricingConvention(t *testing.T) {
	code := countedLoop(t)
	p := rawProg(t, "counted", code...)
	rep := mustAnalyze(t, p)
	var li *LoopInfo
	for i := range rep.Loops {
		if rep.Loops[i].HeadPC == 1 {
			li = &rep.Loops[i]
		}
	}
	if li == nil {
		t.Fatalf("no loop with head 1 in %+v", rep.Loops)
	}

	// Hand-sum against cpu.CyclesFor: SW + ADDI at fall-through cost,
	// BNE at taken cost (the back edge that continues the loop).
	want := cpu.CyclesFor(code[1], false) +
		cpu.CyclesFor(code[2], false) +
		cpu.CyclesFor(code[3], true)
	if li.CyclesPerIter != want {
		t.Fatalf("CyclesPerIter = %d, want %d (body at fall cost + terminator at taken cost)",
			li.CyclesPerIter, want)
	}

	// The WCEC pass must agree on the per-iteration figure: its bound
	// for the whole region is entry + trips·iter + exit suffix + halt,
	// with the same iteration price.
	tbl, err := WCEC(p, wcecOpts(1000))
	if err != nil {
		t.Fatalf("WCEC: %v", err)
	}
	r := tbl.Regions[0]
	entry := cpu.CyclesFor(code[0], false)
	exit := cpu.CyclesFor(code[1], false) + cpu.CyclesFor(code[2], false) +
		cpu.CyclesFor(code[3], false) // exit iteration ends on the fall edge
	haltC := cpu.CyclesFor(code[4], false)
	const trips = 10
	if wantWC := entry + trips*li.CyclesPerIter + exit + haltC; r.WCCycles != wantWC {
		t.Fatalf("WCEC WC = %d, want %d = entry %d + %d·%d + exit %d + halt %d",
			r.WCCycles, wantWC, entry, trips, li.CyclesPerIter, exit, haltC)
	}
}

// TestSimpleCycleCostMatchesCyclesFor checks the loop forest the lint
// prices over. On multi-block *simple* cycles (exactly one in-loop
// successor per block, the precondition classifyLoop prices under) the
// jump-terminated block is priced at its single successor edge, the
// latch at the taken back edge, and each block's price is the
// instruction-by-instruction sum of cpu.CyclesFor under that edge kind.
// A loop is headed at its entry, which for a bottom-tested loop is the
// test block above its body; an irreducible loop is recorded once, with
// no nested loops.
func TestSimpleCycleCostMatchesCyclesFor(t *testing.T) {
	jump := []isa.Instr{
		{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R0, Imm: 4},  // 0
		{Op: isa.LW, Rd: isa.R3, Rs1: isa.R0, Imm: 0},    // 1 header
		{Op: isa.JAL, Rd: isa.R0, Imm: 3},                // 2 block break
		{Op: isa.SW, Rd: isa.R3, Rs1: isa.R0, Imm: 0},    // 3
		{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R2, Imm: -1}, // 4
		{Op: isa.BNE, Rd: isa.R2, Rs1: isa.R0, Imm: -4},  // 5 -> 1
		halt(), // 6
	}
	bottom := []isa.Instr{
		{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R0, Imm: 4},  // 0
		{Op: isa.JAL, Rd: isa.R0, Imm: 4},                // 1 -> test block
		{Op: isa.SW, Rd: isa.R2, Rs1: isa.R0, Imm: 0},    // 2 body
		{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R2, Imm: -1}, // 3
		{Op: isa.BNE, Rd: isa.R2, Rs1: isa.R0, Imm: -2},  // 4 test -> 2
		halt(), // 5
	}
	cases := []struct {
		name string
		code []isa.Instr
		want LoopInfo // the only loop
	}{
		// Header block: LW + JAL (jump cost is edge-kind independent);
		// latch block: SW + ADDI + BNE at the taken back edge.
		{"jump", jump, LoopInfo{HeadPC: 1, Blocks: 2, Stores: 1, Simple: true,
			CyclesPerIter: cpu.CyclesFor(jump[1], false) + cpu.CyclesFor(jump[2], false) +
				cpu.CyclesFor(jump[3], false) + cpu.CyclesFor(jump[4], false) +
				cpu.CyclesFor(jump[5], true)}},
		// Body block: SW + ADDI falling into the test; test block: BNE
		// at the taken back edge.
		{"bottom-tested", bottom, LoopInfo{HeadPC: 4, Blocks: 2, Stores: 1, Simple: true,
			CyclesPerIter: cpu.CyclesFor(bottom[2], false) + cpu.CyclesFor(bottom[3], false) +
				cpu.CyclesFor(bottom[4], true)}},
		// Entered at pcs 3 and 5; the self-loop at 5 is not recovered.
		{"irreducible", irreducibleLoop(), LoopInfo{HeadPC: 3, Blocks: 3}},
	}
	for _, c := range cases {
		if c.want.Simple {
			c.want.TauStore = float64(c.want.CyclesPerIter) / float64(c.want.Stores)
		}
		rep := mustAnalyze(t, rawProg(t, c.name, c.code...))
		if len(rep.Loops) != 1 || rep.Loops[0] != c.want {
			t.Errorf("%s: loops = %+v, want [%+v]", c.name, rep.Loops, c.want)
		}
		fs := findKind(rep, KindLoopNoBoundary)
		if c.want.Stores > 0 && (len(fs) != 1 || fs[0].PC != c.want.HeadPC) {
			t.Errorf("%s: loop-no-boundary findings %+v, want one at the header pc %d", c.name, fs, c.want.HeadPC)
		}
	}
}
