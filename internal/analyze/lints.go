package analyze

import (
	"sort"

	"ehmodel/internal/cpu"
	"ehmodel/internal/isa"
)

// readRegs returns the registers an instruction reads, per the cpu's
// operand conventions: stores read their data from the Rd field and
// branches compare Rd against Rs1.
func readRegs(in isa.Instr) []isa.Reg {
	switch {
	case in.Op.IsRType():
		return []isa.Reg{in.Rs1, in.Rs2}
	case in.Op.IsBranch():
		return []isa.Reg{in.Rd, in.Rs1}
	case in.Op.IsStore():
		return []isa.Reg{in.Rs1, in.Rd}
	case in.Op.IsLoad(), in.Op == isa.JALR:
		return []isa.Reg{in.Rs1}
	case in.Op == isa.LUI, in.Op == isa.JAL:
		return nil
	case in.Op == isa.SYS:
		if isa.Sys(in.Imm) == isa.SysOut {
			return []isa.Reg{in.Rs1}
		}
		return nil
	default: // I-type ALU
		return []isa.Reg{in.Rs1}
	}
}

// noBoundaryBefore computes, per instruction, whether some path from
// entry reaches it without executing any checkpoint-site SYS — the
// predicate behind the war-before-first-checkpoint lint.
func noBoundaryBefore(g *cfg, boundaries map[isa.Sys]bool) []bool {
	n := len(g.blocks)
	in := make([]bool, n)
	seen := make([]bool, n)
	var work []int
	if n > 0 {
		in[0], seen[0] = true, true
		work = append(work, 0)
	}
	stepBlock := func(id int) bool {
		v := in[id]
		b := g.blocks[id]
		for pc := b.Start; pc < b.End; pc++ {
			inr := g.code[pc]
			if inr.Op == isa.SYS && boundaries[isa.Sys(inr.Imm)] {
				v = false
			}
		}
		return v
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		out := stepBlock(id)
		for _, s := range g.blocks[id].Succs {
			if !seen[s] {
				seen[s], in[s] = true, out
				work = append(work, s)
			} else if out && !in[s] {
				in[s] = true
				work = append(work, s)
			}
		}
	}
	res := make([]bool, len(g.code))
	for id, b := range g.blocks {
		if !seen[id] {
			continue
		}
		v := in[id]
		for pc := b.Start; pc < b.End; pc++ {
			res[pc] = v
			inr := g.code[pc]
			if inr.Op == isa.SYS && boundaries[isa.Sys(inr.Imm)] {
				v = false
			}
		}
	}
	return res
}

// analyzeLoops walks the loop-nest forest of the block graph. Each loop
// records store count, checkpoint sites, nesting depth, and — for
// simple cycles — the iteration cost and τ_store the Eq. 15 check
// consumes.
func analyzeLoops(g *cfg, boundaries map[isa.Sys]bool) []LoopInfo {
	adj := make(map[int][]int, len(g.blocks))
	for id, b := range g.blocks {
		adj[id] = b.Succs
	}
	var loops []LoopInfo
	var walk func(nest []*loop, depth int)
	walk = func(nest []*loop, depth int) {
		for _, l := range nest {
			loops = append(loops, classifyLoop(g, l, boundaries, depth))
			walk(l.inner, depth+1)
		}
	}
	walk(loopForest(adj, 0), 0)
	sort.Slice(loops, func(i, j int) bool { return loops[i].HeadPC < loops[j].HeadPC })
	return loops
}

// simpleCycleCost prices one block of a simple cycle along the
// loop-continuing path. This is the single convention shared by the
// mean-τ_store pricing below and the max-path WCEC pass (wcec.go):
// every completed iteration charges each instruction at its CyclesFor
// cost with the block terminator priced for the in-loop edge it follows
// (the taken cost exactly when the continuing edge is the taken edge —
// for non-branch terminators the flag is vacuous, CyclesFor ignores
// it). The final, exiting iteration's not-taken branch is deliberately
// NOT folded into the per-iteration figure: pricing the exit belongs to
// the worst-case pass, which charges trips·(cycle cost) plus the worst
// header→exit suffix at the exit edge's own cost.
func simpleCycleCost(g *cfg, id int, takenEdge bool) uint64 {
	b := g.blocks[id]
	var cycles uint64
	for pc := b.Start; pc < b.End-1; pc++ {
		cycles += cpu.CyclesFor(g.code[pc], false)
	}
	return cycles + cpu.CyclesFor(g.code[b.End-1], takenEdge)
}

// classifyLoop builds the LoopInfo for one loop of the block graph.
func classifyLoop(g *cfg, l *loop, boundaries map[isa.Sys]bool, depth int) LoopInfo {
	inComp := make(map[int]bool, len(l.members))
	for _, id := range l.members {
		inComp[id] = true
	}

	li := LoopInfo{HeadPC: g.blocks[l.head].Start, Blocks: len(l.members), Depth: depth}
	simple := true
	var cycles uint64
	for _, id := range l.members {
		b := g.blocks[id]
		for pc := b.Start; pc < b.End; pc++ {
			in := g.code[pc]
			if in.Op.IsStore() {
				li.Stores++
			}
			if in.Op == isa.SYS && boundaries[isa.Sys(in.Imm)] {
				li.HasBoundary = true
			}
		}

		// A simple cycle has exactly one in-SCC successor per block;
		// price the block on that path.
		var inner []int
		taken := false
		for _, e := range g.succEdges(id) {
			if inComp[e.To] {
				inner = append(inner, e.To)
				taken = e.Kind == edgeTaken
			}
		}
		if len(inner) != 1 {
			simple = false
			continue
		}
		cycles += simpleCycleCost(g, id, taken)
	}
	li.Simple = simple
	if simple {
		li.CyclesPerIter = cycles
		if li.Stores > 0 {
			li.TauStore = float64(cycles) / float64(li.Stores)
		}
	}
	return li
}

// lintPass emits all findings into the report. It assumes r.prog,
// r.Hazards, r.RegionHazards, r.Loops and the footprint sets are
// already populated.
func (r *Report) lintPass(g *cfg, fr *flowResult, acc []*accessInfo, readFoot *wordSet, noBoundary []bool) {
	add := func(f Finding) { r.Findings = append(r.Findings, f) }

	// Structural faults first: bad targets, invalid SYS, unreachable.
	for _, pc := range g.badTargets {
		add(r.finding(KindBadTarget, SevError, pc,
			"branch or jump target outside the %d-instruction program", len(g.code)))
	}
	for id, b := range g.blocks {
		if fr.reach[id] {
			continue
		}
		add(r.finding(KindUnreachable, SevWarn, b.Start,
			"unreachable block of %d instruction(s)", b.End-b.Start))
	}
	for id, b := range g.blocks {
		if !fr.reach[id] {
			continue
		}
		for pc := b.Start; pc < b.End; pc++ {
			in := g.code[pc]

			if in.Op == isa.SYS && !isa.Sys(in.Imm).Valid() {
				add(r.finding(KindBadSys, SevError, pc,
					"undefined SYS code %d faults at runtime", in.Imm))
			}

			// Cold-boot register hygiene: reading a register no path has
			// written yet reads the 0xABABABAB corruption pattern.
			st := fr.stateAt[pc]
			for _, reg := range readRegs(in) {
				if reg != isa.R0 && st.mayUninit(reg) {
					add(r.finding(KindUninitRead, SevError, pc,
						"%v may be read before any write since cold boot", reg))
				}
			}

			// R13–R15 calling convention.
			if in.Op == isa.JAL && in.Rd != isa.R0 && in.Rd != isa.LR {
				add(r.finding(KindCallConv, SevWarn, pc,
					"call links into %v; the convention links through lr so returns can use it", in.Rd))
			}
			if in.Op == isa.JALR && in.Rs1 != isa.LR {
				add(r.finding(KindCallConv, SevInfo, pc,
					"indirect jump through %v rather than lr", in.Rs1))
			}

			a := acc[pc]
			if a == nil {
				continue
			}
			if a.misaligned {
				add(r.finding(KindMisaligned, SevError, pc,
					"word access at %#x is not 4-aligned and faults at runtime", a.addr))
			}
			if a.oob {
				add(r.finding(KindOOB, SevError, pc,
					"access cannot land in SRAM or FRAM"))
			}
		}
	}

	// Dead stores: exact stores to words the program never loads. Only
	// meaningful when the read footprint is bounded.
	if !readFoot.top {
		for id, b := range g.blocks {
			if !fr.reach[id] {
				continue
			}
			for pc := b.Start; pc < b.End; pc++ {
				a := acc[pc]
				if a == nil || !a.store || !a.exact || a.oob {
					continue
				}
				if !readFoot.has(a.addr &^ 3) {
					add(r.finding(KindDeadStore, SevInfo, pc,
						"stores %s which no instruction loads", r.syms.wordName(a.addr&^3)))
				}
			}
		}
	}

	// Outermost loops that store without a checkpoint site anywhere in
	// their body: the store count between checkpoints is unbounded
	// (only Clank's watchdog caps the re-execution interval). Nested
	// loops are exempt when an enclosing loop holds the boundary.
	for _, l := range r.Loops {
		if l.Depth == 0 && l.Stores > 0 && !l.HasBoundary {
			add(r.finding(KindLoopNoBoundary, SevWarn, l.HeadPC,
				"loop stores %d time(s) per iteration but has no checkpoint site", l.Stores))
		}
	}

	// WAR hazards. Region hazards are genuine replay bugs for software
	// checkpointing; those reachable before any checkpoint site are
	// flagged separately. Global hazards are informational for Clank.
	for _, h := range r.RegionHazards {
		kind, sev := KindWARRegion, SevError
		if h.PC < len(noBoundary) && noBoundary[h.PC] {
			kind = KindWARBoot
		}
		add(r.finding(kind, sev, h.PC,
			"store may overwrite %s read earlier in the same checkpoint region", r.syms.describeWords(h)))
	}
	regionAt := make(map[int]bool, len(r.RegionHazards))
	for _, h := range r.RegionHazards {
		regionAt[h.PC] = true
	}
	for _, h := range r.Hazards {
		if regionAt[h.PC] {
			continue // already reported at error severity
		}
		add(r.finding(KindWARGlobal, SevWarn, h.PC,
			"store to %s is a write-after-read under some Clank checkpoint placement", r.syms.describeWords(h)))
	}

	sortFindings(r.Findings)
}

var sevRank = map[Severity]int{SevError: 0, SevWarn: 1, SevInfo: 2}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if sevRank[fs[i].Sev] != sevRank[fs[j].Sev] {
			return sevRank[fs[i].Sev] < sevRank[fs[j].Sev]
		}
		if fs[i].PC != fs[j].PC {
			return fs[i].PC < fs[j].PC
		}
		return fs[i].Kind < fs[j].Kind
	})
}
