package cpu

import (
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
)

// benchLoop builds the counter-style hot loop (load, add, store, index,
// branch) the engine benchmarks hammer: the §V-A instruction mix with
// one memory read-modify-write per iteration.
func benchLoop(b *testing.B) ([]isa.Instr, *mem.System) {
	b.Helper()
	bb := asm.New("benchloop")
	bb.Word("count", 0)
	bb.La(isa.R1, "count")
	bb.Li(isa.R2, 1<<30) // effectively endless; the driver bounds work
	bb.Li(isa.R3, 0)
	bb.Label("loop")
	bb.Lw(isa.R4, isa.R1, 0)
	bb.Addi(isa.R4, isa.R4, 1)
	bb.Sw(isa.R4, isa.R1, 0)
	bb.Addi(isa.R3, isa.R3, 1)
	bb.Blt(isa.R3, isa.R2, "loop")
	bb.Halt()
	p, err := bb.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	m, err := mem.NewSystem(4096, 65536)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.WriteSRAMImage(p.SRAMImage); err != nil {
		b.Fatal(err)
	}
	return p.Code, m
}

// BenchmarkStep measures the per-instruction interpreter, the unit of
// work the reference engine pays once per simulated instruction.
func BenchmarkStep(b *testing.B) {
	code, m := benchLoop(b)
	c := &Core{}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		st, err := c.Step(code, m)
		if err != nil {
			b.Fatal(err)
		}
		cycles += st.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkStepN measures the batched interpreter: one call executes a
// 16 Ki-cycle budget. The allocs/op metric must stay at zero — the
// batched engine's hot loop is required to be allocation-free.
func BenchmarkStepN(b *testing.B) {
	code, m := benchLoop(b)
	c := &Core{}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		bt, err := c.StepN(code, m, 1<<14, 0)
		if err != nil {
			b.Fatal(err)
		}
		cycles += bt.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// TestStepNZeroAllocs pins the allocation-free contract: a StepN call
// allocates nothing.
func TestStepNZeroAllocs(t *testing.T) {
	bb := asm.New("allocs")
	bb.Word("count", 0)
	bb.La(isa.R1, "count")
	bb.Li(isa.R2, 1<<30)
	bb.Li(isa.R3, 0)
	bb.Label("loop")
	bb.Lw(isa.R4, isa.R1, 0)
	bb.Addi(isa.R4, isa.R4, 1)
	bb.Sw(isa.R4, isa.R1, 0)
	bb.Addi(isa.R3, isa.R3, 1)
	bb.Blt(isa.R3, isa.R2, "loop")
	bb.Halt()
	p, err := bb.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	m, err := mem.NewSystem(4096, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSRAMImage(p.SRAMImage); err != nil {
		t.Fatal(err)
	}
	c := &Core{}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.StepN(p.Code, m, 1<<12, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("StepN allocated %v times per call; the batched hot loop must be allocation-free", allocs)
	}
}

// TestStepZeroAllocs pins the same contract on the per-instruction
// path: the value-typed Step result must not escape to the heap.
func TestStepZeroAllocs(t *testing.T) {
	bb := asm.New("allocs1")
	bb.Word("count", 0)
	bb.La(isa.R1, "count")
	bb.Li(isa.R2, 1<<30)
	bb.Li(isa.R3, 0)
	bb.Label("loop")
	bb.Lw(isa.R4, isa.R1, 0)
	bb.Addi(isa.R4, isa.R4, 1)
	bb.Sw(isa.R4, isa.R1, 0)
	bb.Addi(isa.R3, isa.R3, 1)
	bb.Blt(isa.R3, isa.R2, "loop")
	bb.Halt()
	p, err := bb.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	m, err := mem.NewSystem(4096, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSRAMImage(p.SRAMImage); err != nil {
		t.Fatal(err)
	}
	c := &Core{}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Step(p.Code, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Step allocated %v times per call; want 0", allocs)
	}
}
