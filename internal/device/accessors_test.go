package device

import (
	"math"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/cpu"
	"ehmodel/internal/energy"
)

// TestDeviceAccessors exercises the inspection surface strategies use.
func TestDeviceAccessors(t *testing.T) {
	prog := loopProgram(t, 100, asm.SRAM)
	cfg := fixedConfig(t, prog, 1e-6)
	d, err := New(cfg, nullStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cfg().Prog != prog {
		t.Error("Cfg lost the program")
	}
	if d.Cfg().SigmaB != 2 || d.Cfg().SigmaR != 2 {
		t.Error("defaults not applied in Cfg")
	}
	if d.EnergyExceeds(0) {
		t.Error("fresh device should start discharged")
	}
	full := d.FullSupply()
	if math.Abs(full-1e-6) > 1e-12 {
		t.Errorf("FullSupply %g, want 1e-6", full)
	}
	if d.HasCheckpoint() {
		t.Error("checkpoint before any backup")
	}
	if d.ExecSinceBackup() != 0 {
		t.Error("exec counter nonzero before run")
	}
	// footprint is the word-aligned SRAM image (count word = 4 bytes)
	if got := d.SRAMFootprint(); got != 4 {
		t.Errorf("footprint %d, want 4", got)
	}
	// backup cost: 76 bytes at σ_B=2 → 38 mem cycles + no surcharge
	p := Payload{ArchBytes: cpu.ArchStateBytes, AppBytes: 4}
	wantCost := 38 * energy.MSP430Power().EnergyPerCycle(energy.ClassMem)
	if got := d.BackupCost(p); math.Abs(got-wantCost) > 1e-15 {
		t.Errorf("BackupCost %g, want %g", got, wantCost)
	}
	if got := d.BackupCost(Payload{}); got != 0 {
		t.Errorf("empty payload cost %g", got)
	}
}

// TestResultAccessorsAfterRun covers the derived statistics on a real
// run.
func TestResultAccessorsAfterRun(t *testing.T) {
	prog := loopProgram(t, 3000, asm.SRAM)
	e := 2500 * energy.MSP430Power().EnergyPerCycle(energy.ClassALU)
	d, err := New(fixedConfig(t, prog, e), intervalStrategy{k: 400})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredEpsilon() <= 0 {
		t.Error("no measured ε")
	}
	if res.MeanSupply() <= 0 {
		t.Error("no mean supply")
	}
	if len(res.PayloadSamples()) != res.Backups() {
		t.Error("payload samples should match backup count")
	}
	if res.MeanTauD() < 0 {
		t.Error("negative τ_D")
	}
	for _, s := range res.AlphaBSamples() {
		if s < 0 {
			t.Error("negative α_B sample")
		}
	}
	// empty result edge cases
	empty := &Result{}
	if empty.MeasuredProgress() != 0 || empty.MeanSupply() != 0 || empty.MeasuredEpsilon() != 0 {
		t.Error("empty result should produce zeros")
	}
	if empty.CycleProgress() != 0 {
		t.Error("empty cycle progress")
	}
}
