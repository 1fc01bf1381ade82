package analyze

// Control-flow graph construction over an assembled EH32 instruction
// stream. Blocks are maximal straight-line runs; edges follow
// PC-relative branches, absolute JAL targets and the return-site
// approximation for JALR (an indirect jump may land at the instruction
// after any call, which over-approximates returns soundly for the
// dataflow passes).

import (
	"slices"
	"sort"

	"ehmodel/internal/isa"
)

// block is one basic block: instructions [Start, End).
type block struct {
	Start, End int
	Succs      []int // successor block ids
}

// edgeKind distinguishes how control reaches a successor, so the
// dataflow can apply branch-condition refinement on the right edge.
type edgeKind int

const (
	edgeFall edgeKind = iota // fallthrough / unconditional
	edgeTaken
)

type cfg struct {
	code    []isa.Instr
	blocks  []block
	blockOf []int // instruction index → block id
	// returnSites are the instructions after each JAL call (rd ≠ r0) —
	// the JALR successor approximation.
	returnSites []int
	// badTargets lists PCs whose branch/jump target lies outside the
	// program (a guaranteed runtime fault).
	badTargets []int
	// indirect lists JALR PCs (resolved via returnSites, or dead ends
	// when the program has no calls).
	indirect []int
}

// buildCFG partitions code into blocks and wires the edges.
func buildCFG(code []isa.Instr) *cfg {
	n := len(code)
	g := &cfg{code: code}
	leader := make([]bool, n+1)
	leader[0] = true
	mark := func(t int) {
		if t >= 0 && t < n {
			leader[t] = true
		}
	}
	for pc, in := range code {
		switch {
		case in.Op.IsBranch():
			mark(pc + int(in.Imm))
			mark(pc + 1)
		case in.Op == isa.JAL:
			mark(int(in.Imm))
			mark(pc + 1)
			if in.Rd != isa.R0 {
				g.returnSites = append(g.returnSites, pc+1)
			}
		case in.Op == isa.JALR:
			mark(pc + 1)
			g.indirect = append(g.indirect, pc)
		case in.Op == isa.SYS && isa.Sys(in.Imm) == isa.SysHalt:
			mark(pc + 1)
		}
	}

	g.blockOf = make([]int, n)
	start := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || leader[pc] {
			id := len(g.blocks)
			g.blocks = append(g.blocks, block{Start: start, End: pc})
			for i := start; i < pc; i++ {
				g.blockOf[i] = id
			}
			start = pc
		}
	}

	inRange := func(t int) bool { return t >= 0 && t < n }
	for id := range g.blocks {
		b := &g.blocks[id]
		last := b.End - 1
		in := code[last]
		addEdge := func(t int) {
			if !inRange(t) {
				g.badTargets = append(g.badTargets, last)
				return
			}
			b.Succs = append(b.Succs, g.blockOf[t])
		}
		switch {
		case in.Op.IsBranch():
			addEdge(last + 1)           // edge 0: fallthrough
			addEdge(last + int(in.Imm)) // edge 1: taken
		case in.Op == isa.JAL:
			addEdge(int(in.Imm))
		case in.Op == isa.JALR:
			for _, rs := range g.returnSites {
				if inRange(rs) {
					b.Succs = append(b.Succs, g.blockOf[rs])
				}
			}
		case in.Op == isa.SYS && isa.Sys(in.Imm) == isa.SysHalt:
			// no successors
		default:
			addEdge(b.End)
		}
	}
	sort.Ints(g.badTargets)
	return g
}

// succEdges enumerates (succ, kind) pairs of a block. For conditional
// branches the first successor is the fallthrough and the second the
// taken edge (when both resolved in range).
func (g *cfg) succEdges(id int) []struct {
	To   int
	Kind edgeKind
} {
	b := g.blocks[id]
	last := g.code[b.End-1]
	out := make([]struct {
		To   int
		Kind edgeKind
	}, 0, len(b.Succs))
	for i, s := range b.Succs {
		k := edgeFall
		if last.Op.IsBranch() && len(b.Succs) == 2 && i == 1 {
			k = edgeTaken
		} else if last.Op.IsBranch() && len(b.Succs) == 1 {
			// One edge fell out of range; classify the surviving one by
			// comparing against the fallthrough target.
			if g.blocks[s].Start != b.End {
				k = edgeTaken
			}
		}
		out = append(out, struct {
			To   int
			Kind edgeKind
		}{s, k})
	}
	return out
}

// regionStep is one in-program transfer out of an instruction; taken
// selects the price of a branch terminator.
type regionStep struct {
	to    int
	taken bool
}

// regionNode is one instruction of a region: the transfers that stay
// in the region, and the taken flag of each transfer that commits.
type regionNode struct {
	succ []regionStep
	ends []bool
}

// region collects the instructions reachable from entry without
// crossing a commit. A halt, or a SYS whose code is in stops, commits
// after it executes; control reaching a PC in cuts commits before that
// PC executes. Transfers out of the program are dropped: running off
// the code is a fault, not a commit.
func (g *cfg) region(entry int, stops map[isa.Sys]bool, cuts map[int]bool) map[int]*regionNode {
	nodes := map[int]*regionNode{}
	stack := []int{entry}
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nodes[pc] != nil {
			continue
		}
		n := &regionNode{}
		nodes[pc] = n
		in := g.code[pc]
		if s := isa.Sys(in.Imm); in.Op == isa.SYS && (s == isa.SysHalt || stops[s]) {
			n.ends = append(n.ends, true)
			continue
		}
		step := func(t int, taken bool) {
			switch {
			case t < 0 || t >= len(g.code):
			case cuts[t]:
				n.ends = append(n.ends, taken)
			default:
				n.succ = append(n.succ, regionStep{t, taken})
				stack = append(stack, t)
			}
		}
		switch {
		case in.Op.IsBranch():
			step(pc+1, false)
			step(pc+int(in.Imm), true)
		case in.Op == isa.JAL:
			step(int(in.Imm), true)
		case in.Op == isa.JALR:
			for _, rs := range g.returnSites {
				step(rs, true)
			}
		default:
			step(pc+1, true)
		}
	}
	return nodes
}

// loop is one loop of a loop-nest forest.
type loop struct {
	members []int // node ids, ascending; nested loops' members included
	// head is the loop's single member entered from outside it. An
	// irreducible loop has several such members: head is then its
	// lowest member and no nested loops are recovered.
	head        int
	irreducible bool
	inner       []*loop
}

// loopForest computes the loop nest of the graph adj (node id → its
// successor ids) entered at entry: the strongly connected components
// that hold a cycle are the outermost loops, and removing a loop's
// header uncovers the loops nested in it. The header is the one member
// entered from outside the loop, the graph entry counting as entered;
// a loop nothing enters (unreachable code) is headed by its lowest
// member. Each level lists its loops in Tarjan order.
func loopForest(adj map[int][]int, entry int) []*loop {
	ids := make([]int, 0, len(adj))
	preds := make(map[int][]int, len(adj))
	for id, succs := range adj {
		ids = append(ids, id)
		for _, s := range succs {
			preds[s] = append(preds[s], id)
		}
	}
	sort.Ints(ids)
	var nest func(ids []int) []*loop
	nest = func(ids []int) []*loop {
		var out []*loop
		for _, comp := range sccs(adj, ids) {
			if len(comp) == 1 && !slices.Contains(adj[comp[0]], comp[0]) {
				continue // no cycle
			}
			in := make(map[int]bool, len(comp))
			for _, id := range comp {
				in[id] = true
			}
			var heads []int
			for _, id := range comp {
				if id == entry || slices.ContainsFunc(preds[id], func(p int) bool { return !in[p] }) {
					heads = append(heads, id)
				}
			}
			l := &loop{members: comp, head: comp[0], irreducible: len(heads) > 1}
			if len(heads) == 1 {
				l.head = heads[0]
			}
			if !l.irreducible {
				l.inner = nest(slices.DeleteFunc(slices.Clone(comp), func(id int) bool { return id == l.head }))
			}
			out = append(out, l)
		}
		return out
	}
	return nest(ids)
}

// sccs returns the strongly connected components of adj restricted to
// ids (ascending), each sorted, in reverse topological order. Tarjan's
// algorithm runs iteratively to stay safe on long chains.
func sccs(adj map[int][]int, ids []int) [][]int {
	allowed := make(map[int]bool, len(ids))
	for _, id := range ids {
		allowed[id] = true
	}
	index := make(map[int]int, len(ids))
	low := make(map[int]int, len(ids))
	onStack := make(map[int]bool, len(ids))
	var stack []int
	var out [][]int
	type frame struct {
		v, succIdx int
	}
	var dfs []frame
	visit := func(v int) {
		index[v], low[v] = len(index), len(index)
		stack = append(stack, v)
		onStack[v] = true
		dfs = append(dfs, frame{v, 0})
	}
	for _, root := range ids {
		if _, done := index[root]; done {
			continue
		}
		visit(root)
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			if f.succIdx < len(adj[f.v]) {
				w := adj[f.v][f.succIdx]
				f.succIdx++
				_, done := index[w]
				switch {
				case !allowed[w]:
				case !done:
					visit(w)
				case onStack[w]:
					low[f.v] = min(low[f.v], index[w])
				}
				continue
			}
			v := f.v
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := dfs[len(dfs)-1].v
				low[p] = min(low[p], low[v])
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				out = append(out, comp)
			}
		}
	}
	return out
}
