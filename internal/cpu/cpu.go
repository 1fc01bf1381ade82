// Package cpu implements the cycle-level EH32 interpreter. The core is
// deliberately small and deterministic: every Step reports exactly how
// many cycles it took, which power class it belongs to, and what memory
// it touched — the raw quantities the intermittent-device simulator and
// the EH model's parameters (ε, α_B, τ_B) are built from.
package cpu

import (
	"fmt"

	"ehmodel/internal/energy"
	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
)

// Cycle costs per instruction kind. Loads and stores take two cycles —
// the FRAM word access time at 16 MHz the paper cites (§III).
const (
	cyclesALU    = 1
	cyclesMul    = 2
	cyclesDiv    = 8
	cyclesMem    = 2
	cyclesBranch = 1 // +1 when taken
	cyclesJump   = 2
	cyclesSys    = 1
)

// MaxStepCycles is the most cycles any single instruction takes (a
// division). A batch that starts instructions only below its budget
// therefore ends at most MaxStepCycles−1 cycles past it.
const MaxStepCycles = cyclesDiv

// CyclesFor returns the cycle cost Step charges for in; taken selects
// the taken cost for conditional branches. The static analyzer prices
// paths with it, so it must stay in lockstep with Step's accounting.
func CyclesFor(in isa.Instr, taken bool) uint64 {
	switch {
	case in.Op == isa.MUL:
		return cyclesMul
	case in.Op == isa.DIV || in.Op == isa.REM:
		return cyclesDiv
	case in.Op.IsLoad() || in.Op.IsStore():
		return cyclesMem
	case in.Op.IsBranch():
		if taken {
			return cyclesBranch + 1
		}
		return cyclesBranch
	case in.Op == isa.JAL || in.Op == isa.JALR:
		return cyclesJump
	case in.Op == isa.SYS:
		return cyclesSys
	default:
		return cyclesALU
	}
}

// ClassFor returns the power class Step charges for in. Like CyclesFor
// it exists for the static analyzer's path pricing and must stay in
// lockstep with stepInto: loads and stores are ClassMem, everything
// else ClassALU.
func ClassFor(in isa.Instr) energy.InstrClass {
	if in.Op.IsLoad() || in.Op.IsStore() {
		return energy.ClassMem
	}
	return energy.ClassALU
}

// Access describes one data-memory access made by an instruction.
type Access struct {
	Addr  uint32
	Size  uint8 // bytes: 1 or 4
	Store bool
}

// Step reports what a single executed instruction did. It is a plain
// value: Step and StepN allocate nothing per instruction.
type Step struct {
	Instr     isa.Instr
	Cycles    uint64
	Class     energy.InstrClass
	Access    Access  // valid when HasAccess
	Sys       isa.Sys // valid when HasSys
	HasSys    bool
	HasAccess bool // a data-memory access happened
	Taken     bool // branch taken / jump executed
}

// Core is the architectural state of one EH32 hart. The zero value is a
// reset core at PC 0.
type Core struct {
	PC       uint32
	Regs     [isa.NumRegs]uint32
	SenseSeq uint32   // next deterministic sensor sample index
	OutBuf   []uint32 // volatile output buffer, commits on backup
	Halted   bool
}

// Snapshot returns a deep copy of the architectural state; it is the
// register-file payload of a checkpoint.
func (c *Core) Snapshot() Core {
	cp := *c
	cp.OutBuf = append([]uint32(nil), c.OutBuf...)
	return cp
}

// Restore reinstates a snapshot taken by Snapshot. The output buffer is
// copied once, into the core's existing backing array when it has the
// capacity — restores run on every reboot of an intermittent device, so
// the hot path must not allocate.
func (c *Core) Restore(snap Core) {
	out := append(c.OutBuf[:0], snap.OutBuf...)
	*c = snap
	c.OutBuf = out
}

// Reset returns the core to power-on state with corrupted registers,
// modelling the loss of volatile state at a power failure.
func (c *Core) Reset() {
	const corrupt = 0xABABABAB
	c.PC = corrupt
	for i := range c.Regs {
		c.Regs[i] = corrupt
	}
	c.Regs[0] = 0
	c.SenseSeq = corrupt
	c.OutBuf = nil
	c.Halted = false
}

// ArchStateBytes is the size of the architectural state a full-register
// checkpoint saves: 16 registers, the PC and the sensor sequence
// counter, 4 bytes each.
const ArchStateBytes = (isa.NumRegs + 2) * 4

// SenseValue derives the deterministic sensor sample for index i. It is
// a splitmix64-style hash so replay after a restore reads identical
// values, keeping intermittent and continuous executions equivalent.
// Workload reference oracles use it to predict SysSense results.
func SenseValue(i uint32) uint32 {
	z := uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return uint32(z ^ (z >> 31))
}

// setReg writes a register honouring the hardwired zero.
func (c *Core) setReg(r isa.Reg, v uint32) {
	if r != isa.R0 {
		c.Regs[r] = v
	}
}

// Step executes one instruction from code against m. The returned Step
// carries the cycle/energy accounting. Executing on a halted core or
// with the PC outside code is an error.
func (c *Core) Step(code []isa.Instr, m *mem.System) (Step, error) {
	var st Step
	pc := c.PC
	if err := c.stepInto(code, m, &st); err != nil {
		return Step{}, err
	}
	// The instruction echo is filled here rather than in stepInto: the
	// batched engine never reads it, so the hot StepN loop should not
	// pay the copy on every instruction.
	st.Instr = code[pc]
	return st, nil
}

// stepInto is the interpreter shared by Step and StepN: it executes one
// instruction and overwrites *st with its report (everything except the
// Instr echo, which only the Step wrapper fills). A single body keeps
// the per-step and batched engines incapable of semantic divergence.
// On error the core state is unchanged and *st is zeroed.
func (c *Core) stepInto(code []isa.Instr, m *mem.System, st *Step) error {
	if c.Halted {
		*st = Step{}
		return fmt.Errorf("cpu: step on halted core")
	}
	if int(c.PC) >= len(code) {
		*st = Step{}
		return fmt.Errorf("cpu: PC %d outside code (%d instructions)", c.PC, len(code))
	}
	in := code[c.PC]
	*st = Step{Cycles: cyclesALU, Class: energy.ClassALU}
	next := c.PC + 1

	rs1 := c.Regs[in.Rs1]
	rs2 := c.Regs[in.Rs2]
	rd := c.Regs[in.Rd]
	imm := uint32(in.Imm)

	switch in.Op {
	case isa.ADD:
		c.setReg(in.Rd, rs1+rs2)
	case isa.SUB:
		c.setReg(in.Rd, rs1-rs2)
	case isa.AND:
		c.setReg(in.Rd, rs1&rs2)
	case isa.OR:
		c.setReg(in.Rd, rs1|rs2)
	case isa.XOR:
		c.setReg(in.Rd, rs1^rs2)
	case isa.SLL:
		c.setReg(in.Rd, rs1<<(rs2&31))
	case isa.SRL:
		c.setReg(in.Rd, rs1>>(rs2&31))
	case isa.SRA:
		c.setReg(in.Rd, uint32(int32(rs1)>>(rs2&31)))
	case isa.SLT:
		c.setReg(in.Rd, boolTo(int32(rs1) < int32(rs2)))
	case isa.SLTU:
		c.setReg(in.Rd, boolTo(rs1 < rs2))
	case isa.MUL:
		st.Cycles = cyclesMul
		c.setReg(in.Rd, rs1*rs2)
	case isa.DIV:
		st.Cycles = cyclesDiv
		c.setReg(in.Rd, div32(rs1, rs2))
	case isa.REM:
		st.Cycles = cyclesDiv
		c.setReg(in.Rd, rem32(rs1, rs2))

	case isa.ADDI:
		c.setReg(in.Rd, rs1+imm)
	case isa.ANDI:
		c.setReg(in.Rd, rs1&imm)
	case isa.ORI:
		c.setReg(in.Rd, rs1|imm)
	case isa.XORI:
		c.setReg(in.Rd, rs1^imm)
	case isa.SLLI:
		c.setReg(in.Rd, rs1<<(imm&31))
	case isa.SRLI:
		c.setReg(in.Rd, rs1>>(imm&31))
	case isa.SRAI:
		c.setReg(in.Rd, uint32(int32(rs1)>>(imm&31)))
	case isa.SLTI:
		c.setReg(in.Rd, boolTo(int32(rs1) < in.Imm))
	case isa.LUI:
		c.setReg(in.Rd, imm<<14)

	case isa.LW, isa.LB, isa.LBU:
		st.Cycles = cyclesMem
		st.Class = energy.ClassMem
		addr := rs1 + imm
		size := uint8(4)
		var v uint32
		var err error
		switch in.Op {
		case isa.LW:
			v, err = m.LoadWord(addr)
		case isa.LB:
			var b byte
			b, err = m.LoadByte(addr)
			v = uint32(int32(int8(b)))
			size = 1
		case isa.LBU:
			var b byte
			b, err = m.LoadByte(addr)
			v = uint32(b)
			size = 1
		}
		if err != nil {
			*st = Step{}
			return fmt.Errorf("cpu: pc %d: %w", c.PC, err)
		}
		c.setReg(in.Rd, v)
		st.Access = Access{Addr: addr, Size: size}
		st.HasAccess = true

	case isa.SW, isa.SB:
		st.Cycles = cyclesMem
		st.Class = energy.ClassMem
		addr := rs1 + imm
		var err error
		size := uint8(4)
		if in.Op == isa.SW {
			err = m.StoreWord(addr, rd)
		} else {
			err = m.StoreByte(addr, byte(rd))
			size = 1
		}
		if err != nil {
			*st = Step{}
			return fmt.Errorf("cpu: pc %d: %w", c.PC, err)
		}
		st.Access = Access{Addr: addr, Size: size, Store: true}
		st.HasAccess = true

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		st.Cycles = cyclesBranch
		a, b := rd, rs1 // branches compare the Rd and Rs1 fields
		var taken bool
		switch in.Op {
		case isa.BEQ:
			taken = a == b
		case isa.BNE:
			taken = a != b
		case isa.BLT:
			taken = int32(a) < int32(b)
		case isa.BGE:
			taken = int32(a) >= int32(b)
		case isa.BLTU:
			taken = a < b
		case isa.BGEU:
			taken = a >= b
		}
		if taken {
			st.Cycles++
			st.Taken = true
			next = c.PC + uint32(in.Imm)
		}

	case isa.JAL:
		st.Cycles = cyclesJump
		st.Taken = true
		c.setReg(in.Rd, c.PC+1)
		next = uint32(in.Imm)

	case isa.JALR:
		st.Cycles = cyclesJump
		st.Taken = true
		c.setReg(in.Rd, c.PC+1)
		next = rs1 + imm

	case isa.SYS:
		st.Cycles = cyclesSys
		st.HasSys = true
		st.Sys = isa.Sys(in.Imm)
		switch st.Sys {
		case isa.SysHalt:
			c.Halted = true
			next = c.PC // stay put; device commits final state
		case isa.SysOut:
			c.OutBuf = append(c.OutBuf, rs1)
		case isa.SysSense:
			c.setReg(in.Rd, SenseValue(c.SenseSeq))
			c.SenseSeq++
		case isa.SysChkpt, isa.SysTaskBegin, isa.SysTaskEnd:
			// semantics belong to the runtime strategy
		default:
			*st = Step{}
			return fmt.Errorf("cpu: pc %d: unknown syscall %d", c.PC, in.Imm)
		}

	default:
		*st = Step{}
		return fmt.Errorf("cpu: pc %d: unimplemented op %v", c.PC, in.Op)
	}

	c.PC = next
	return nil
}

func boolTo(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// div32 implements signed division with RISC-V edge semantics:
// x/0 = −1 (all ones) and INT_MIN/−1 = INT_MIN.
func div32(a, b uint32) uint32 {
	if b == 0 {
		return 0xFFFFFFFF
	}
	sa, sb := int32(a), int32(b)
	if sa == -1<<31 && sb == -1 {
		return a
	}
	return uint32(sa / sb)
}

// rem32 implements signed remainder with RISC-V edge semantics:
// x%0 = x and INT_MIN%−1 = 0.
func rem32(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	sa, sb := int32(a), int32(b)
	if sa == -1<<31 && sb == -1 {
		return 0
	}
	return uint32(sa % sb)
}

// StopReason says why StepN ended a batch.
type StopReason uint8

const (
	// StopBudget: the cycle budget is exhausted. The final instruction
	// may overshoot the budget by up to its own cost minus one cycle
	// (seven cycles today): StepN starts an instruction whenever the
	// consumed count is still below the budget, which is exactly the
	// "fire at the first step at or past the threshold" semantics the
	// per-step engine has for cycle-counted triggers.
	StopBudget StopReason = iota
	// StopSys: the final instruction was a SYS the core halts on or the
	// caller's stop mask selects. The instruction has executed.
	StopSys
	// StopPCRange: the program counter left the code (fell or branched
	// off the end) before the next fetch. No instruction executed at
	// the bad PC.
	StopPCRange
)

// Batch summarizes one StepN call.
type Batch struct {
	Cycles uint64 // total cycles consumed by executed instructions
	// ClassCycles splits Cycles by power class — all the device needs
	// to settle the batch's energy as Σ cycles × ε_class.
	ClassCycles [energy.NumClasses]uint64
	Steps       int // instructions executed
	Stop        StopReason
	// HasSys/Sys describe the final executed instruction (not only
	// StopSys batches: a budget stop can land on an unmasked SYS).
	HasSys bool
	Sys    isa.Sys
}

// StepN executes instructions until the consumed cycles reach budget.
// It stops early — after executing the instruction — at a halt or at
// any SYS in the stop mask, and stops before fetching when the PC
// leaves the code. A memory or decode error returns the batch of the
// instructions that did execute (the failing one changed no state,
// exactly like Step) alongside the error. StepN performs no
// allocation.
func (c *Core) StepN(code []isa.Instr, m *mem.System, budget uint64, stop isa.SysMask) (Batch, error) {
	var b Batch
	var st Step
	for b.Cycles < budget && !c.Halted {
		if int(c.PC) >= len(code) {
			b.Stop = StopPCRange
			return b, nil
		}
		if err := c.stepInto(code, m, &st); err != nil {
			return b, err
		}
		b.Cycles += st.Cycles
		b.ClassCycles[st.Class] += st.Cycles
		b.Steps++
		b.HasSys, b.Sys = st.HasSys, st.Sys
		if st.HasSys && (c.Halted || stop.Has(st.Sys)) {
			b.Stop = StopSys
			return b, nil
		}
	}
	b.Stop = StopBudget
	return b, nil
}
