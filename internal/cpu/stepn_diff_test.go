package cpu_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/cpu"
	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
	"ehmodel/internal/workload"
)

// loadRandom assembles workload.Random(seed) into a fresh memory
// system, optionally truncating the code at cut (mod its length) so the
// program can fall or branch off the end.
func loadRandom(t *testing.T, seed int64, seg asm.Segment, cut uint16) ([]isa.Instr, *mem.System) {
	t.Helper()
	p, err := workload.Random(seed, seg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mem.NewSystem(1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSRAMImage(p.SRAMImage); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFRAMImage(p.FRAMImage); err != nil {
		t.Fatal(err)
	}
	code := p.Code
	if cut != 0 {
		code = code[:1+int(cut)%len(code)]
	}
	return code, m
}

// stepBatch is StepN's specification written with Step: execute one
// instruction at a time while the consumed cycles are below budget,
// stop after a halt or a SYS in the stop mask, and before fetching
// outside the code.
func stepBatch(c *cpu.Core, code []isa.Instr, m *mem.System, budget uint64, stop isa.SysMask) (cpu.Batch, error) {
	var b cpu.Batch
	for b.Cycles < budget && !c.Halted {
		if int(c.PC) >= len(code) {
			b.Stop = cpu.StopPCRange
			return b, nil
		}
		st, err := c.Step(code, m)
		if err != nil {
			return b, err
		}
		b.Cycles += st.Cycles
		b.ClassCycles[st.Class] += st.Cycles
		b.Steps++
		b.HasSys, b.Sys = st.HasSys, st.Sys
		if st.HasSys && (c.Halted || stop.Has(st.Sys)) {
			b.Stop = cpu.StopSys
			return b, nil
		}
	}
	b.Stop = cpu.StopBudget
	return b, nil
}

// framWords reads every FRAM word; with SnapshotSRAM it covers all of
// data memory, so a differing store anywhere shows.
func framWords(t *testing.T, m *mem.System) []uint32 {
	t.Helper()
	out := make([]uint32, 0, m.FRAMSize()/4)
	for a := mem.FRAMBase; a < mem.FRAMBase+uint32(m.FRAMSize()); a += 4 {
		v, err := m.LoadWord(a)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// FuzzStepNMatchesStep is the differential oracle of the batched
// interpreter: a random program run through StepN with random budgets
// and stop masks must leave the core, data memory and every Batch field
// exactly where Step called one instruction at a time leaves them.
func FuzzStepNMatchesStep(f *testing.F) {
	f.Add(int64(1), false, uint16(64), uint16(0))
	f.Add(int64(2), true, uint16(1), uint16(0))
	f.Add(int64(3), false, uint16(16384), uint16(0))
	f.Add(int64(4), true, uint16(300), uint16(17))
	f.Add(int64(5), false, uint16(7), uint16(90))
	f.Fuzz(func(t *testing.T, seed int64, fram bool, maxBudget uint16, cut uint16) {
		seg := asm.SRAM
		if fram {
			seg = asm.FRAM
		}
		code, mA := loadRandom(t, seed, seg, cut)
		_, mB := loadRandom(t, seed, seg, cut)
		rng := rand.New(rand.NewSource(seed ^ int64(maxBudget)<<32 ^ int64(cut)))
		var a, b cpu.Core
		for batch := 0; batch < 1<<16; batch++ {
			budget := 1 + uint64(rng.Intn(int(maxBudget)+1))
			stop := isa.SysMask(rng.Uint32()) & isa.AllSys
			got, errN := a.StepN(code, mA, budget, stop)
			want, errS := stepBatch(&b, code, mB, budget, stop)
			if (errN == nil) != (errS == nil) {
				t.Fatalf("batch %d: StepN error %v, Step error %v", batch, errN, errS)
			}
			if got != want {
				t.Fatalf("batch %d (budget %d, stop %#x): StepN %+v, Step %+v", batch, budget, stop, got, want)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("batch %d: core state StepN %+v, Step %+v", batch, a, b)
			}
			if !bytes.Equal(mA.SnapshotSRAM(), mB.SnapshotSRAM()) ||
				!reflect.DeepEqual(framWords(t, mA), framWords(t, mB)) ||
				mA.FRAMStores() != mB.FRAMStores() {
				t.Fatalf("batch %d: data memory differs", batch)
			}
			if errN != nil || a.Halted || got.Stop == cpu.StopPCRange {
				return
			}
		}
		t.Fatal("program did not halt")
	})
}
