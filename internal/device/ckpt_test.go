package device

import (
	"bytes"
	"errors"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/cpu"
	"ehmodel/internal/energy"
	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
)

// stubInjector scripts fault decisions for white-box protocol tests.
// Zero value injects nothing — attaching it still switches the device to
// the word-granular commit path.
type stubInjector struct {
	// tears holds per-backup tear indices, consumed in order; exhausted
	// or absent entries mean no tear.
	tears   []int
	tearIdx int
	// flip, when set, replaces FlipBits.
	flip func(words []uint32) int
	// stale holds per-restore ForceStale answers, consumed in order.
	stale    []bool
	staleIdx int
	naive    bool
}

func (s *stubInjector) BeginRun() { s.tearIdx, s.staleIdx = 0, 0 }

func (s *stubInjector) PowerCutDue(uint64) bool { return false }

func (s *stubInjector) NextPowerCut() uint64 { return NoPowerCut }

func (s *stubInjector) TearBackup(int) int {
	if s.tearIdx >= len(s.tears) {
		return -1
	}
	k := s.tears[s.tearIdx]
	s.tearIdx++
	return k
}

func (s *stubInjector) FlipBits(words []uint32) int {
	if s.flip == nil {
		return 0
	}
	return s.flip(words)
}

func (s *stubInjector) ForceStale() bool {
	if s.staleIdx >= len(s.stale) {
		return false
	}
	v := s.stale[s.staleIdx]
	s.staleIdx++
	return v
}

func (s *stubInjector) NaiveCommit() bool { return s.naive }

func TestCheckpointRoundtrip(t *testing.T) {
	prog := loopProgram(t, 10, asm.SRAM)
	d, err := New(fixedConfig(t, prog, 1.0), nullStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	d.core.PC = 0x40
	d.core.SenseSeq = 7
	d.core.Halted = true
	for i := range d.core.Regs {
		d.core.Regs[i] = uint32(0x1000 + i)
	}
	if err := d.mem.StoreWord(mem.SRAMBase, 0x11223344); err != nil {
		t.Fatal(err)
	}
	if err := d.mem.StoreWord(mem.FRAMBase, 1); err != nil {
		t.Fatal(err)
	}

	p := Payload{ArchBytes: cpu.ArchStateBytes, AppBytes: d.SRAMFootprint(), SaveSRAM: true}
	words := d.encodeCheckpoint(p)
	if want := ckptHeaderWords + d.SRAMFootprint()/4; len(words) != want {
		t.Fatalf("image %d words, want %d", len(words), want)
	}
	if got := uint64(words[6]) | uint64(words[7])<<32; got != d.mem.FRAMStores() || got != 1 {
		t.Fatalf("image records %d FRAM stores, want %d", got, d.mem.FRAMStores())
	}
	// A count past 32 bits must survive the lo/hi word split.
	var framWrites uint64 = 1<<33 + 5
	words[6], words[7] = uint32(framWrites), uint32(framWrites>>32)
	ck, err := decodeCheckpoint(words, d.SRAMFootprint())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if ck.payload != p {
		t.Errorf("payload %+v, want %+v", ck.payload, p)
	}
	if ck.core.PC != d.core.PC || ck.core.SenseSeq != d.core.SenseSeq || !ck.core.Halted {
		t.Errorf("core header %+v", ck.core)
	}
	if ck.core.Regs != d.core.Regs {
		t.Errorf("registers did not roundtrip")
	}
	if ck.framWrites != framWrites {
		t.Errorf("framWrites %d, want %d (64-bit split broken)", ck.framWrites, framWrites)
	}
	if want := d.mem.SnapshotSRAM()[:d.SRAMFootprint()]; !bytes.Equal(ck.sram, want) {
		t.Errorf("sram snapshot %x, want %x", ck.sram, want)
	}

	// Register-only image: no SRAM payload at all.
	words = d.encodeCheckpoint(Payload{ArchBytes: cpu.ArchStateBytes})
	if len(words) != ckptHeaderWords {
		t.Fatalf("register-only image %d words, want %d", len(words), ckptHeaderWords)
	}
	ck, err = decodeCheckpoint(words, d.SRAMFootprint())
	if err != nil {
		t.Fatalf("decode register-only: %v", err)
	}
	if ck.sram != nil || ck.payload.SaveSRAM {
		t.Error("register-only image decoded with an SRAM snapshot")
	}
}

func TestDecodeCheckpointRejectsCorruption(t *testing.T) {
	prog := loopProgram(t, 10, asm.SRAM)
	d, err := New(fixedConfig(t, prog, 1.0), nullStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	good := d.encodeCheckpoint(Payload{ArchBytes: cpu.ArchStateBytes, AppBytes: d.SRAMFootprint(), SaveSRAM: true})
	footprint := d.SRAMFootprint()

	cases := []struct {
		name string
		mut  func([]uint32) ([]uint32, int)
	}{
		{"truncated header", func(w []uint32) ([]uint32, int) { return w[:ckptHeaderWords-1], footprint }},
		{"unknown flags", func(w []uint32) ([]uint32, int) { w[0] |= 1 << 9; return w, footprint }},
		{"implausible arch bytes", func(w []uint32) ([]uint32, int) { w[1] = maxModeledBytes + 1; return w, footprint }},
		{"implausible app bytes", func(w []uint32) ([]uint32, int) { w[2] = maxModeledBytes + 1; return w, footprint }},
		{"sram size mismatch", func(w []uint32) ([]uint32, int) { return w, footprint + 4 }},
		{"sram bytes without flag", func(w []uint32) ([]uint32, int) { w[0] &^= ckptFlagSRAM; return w, footprint }},
		{"trailing garbage", func(w []uint32) ([]uint32, int) { return append(w, 0), footprint }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			img := append([]uint32(nil), good...)
			img, want := c.mut(img)
			if _, err := decodeCheckpoint(img, want); err == nil {
				t.Fatal("corrupt image decoded without error")
			}
		})
	}
}

// intermittentConfig is fixedConfig sized so the loop program spans many
// periods, with a fault injector attached.
func intermittentConfig(t *testing.T, prog *asm.Program, inj FaultInjector) Config {
	t.Helper()
	e := 2500 * energy.MSP430Power().EnergyPerCycle(energy.ClassALU)
	cfg := fixedConfig(t, prog, e)
	cfg.MaxPeriods = 10000
	cfg.Faults = inj
	return cfg
}

// TestTornBackupKeepsPreviousCommit: a backup torn mid-write must not
// destroy the previous checkpoint — the run completes with the correct
// output, restored from the slot the torn write never touched.
func TestTornBackupKeepsPreviousCommit(t *testing.T) {
	inj := &stubInjector{tears: []int{-1, 10, -1, 0}}
	prog := loopProgram(t, 2000, asm.SRAM)
	d, err := New(intermittentConfig(t, prog, inj), intervalStrategy{k: 300})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if len(res.Output) != 1 || res.Output[0] != 2000 {
		t.Fatalf("output %v, want [2000]", res.Output)
	}
	if res.Faults.TornBackups != 2 || res.Faults.InjectedTears != 2 {
		t.Errorf("fault report %+v, want 2 torn backups from 2 injected tears", res.Faults)
	}
}

// TestBitFlipRejectionFallsBackToColdStart: when stored corruption takes
// out both slots, CRC validation rejects both and the device cold-starts
// rather than restoring garbage — and the rerun still ends correct.
func TestBitFlipRejectionFallsBackToColdStart(t *testing.T) {
	// FlipBits sees four arrays per restore (slot 0, record 0, slot 1,
	// record 1). Corrupt both slot payloads in the first restore that
	// actually has committed images — the period-1 boot sees empty slots.
	call, flipGroup := 0, -1
	inj := &stubInjector{}
	inj.flip = func(words []uint32) int {
		group := call / 4
		call++
		if len(words) < ckptHeaderWords {
			return 0
		}
		if flipGroup == -1 {
			flipGroup = group
		}
		if group == flipGroup {
			words[0] ^= 1 << 4
			return 1
		}
		return 0
	}
	prog := loopProgram(t, 2000, asm.SRAM)
	d, err := New(intermittentConfig(t, prog, inj), intervalStrategy{k: 300})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(res.Output) != 1 || res.Output[0] != 2000 {
		t.Fatalf("completed=%v output=%v, want [2000]", res.Completed, res.Output)
	}
	if res.Faults.BitFlips != 2 {
		t.Errorf("BitFlips = %d, want 2", res.Faults.BitFlips)
	}
	if res.Faults.CRCRejections != 2 {
		t.Errorf("CRCRejections = %d, want both corrupted slots rejected", res.Faults.CRCRejections)
	}
	if res.Faults.ColdRestarts < 1 {
		t.Error("expected a cold restart after losing both slots")
	}
}

// TestForcedStaleRestore: distrusting the newest slot restores the older
// commit; a replay-safe SRAM-snapshot strategy still converges to the
// right answer.
func TestForcedStaleRestore(t *testing.T) {
	inj := &stubInjector{stale: []bool{true}}
	prog := loopProgram(t, 2000, asm.SRAM)
	d, err := New(intermittentConfig(t, prog, inj), intervalStrategy{k: 300})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(res.Output) != 1 || res.Output[0] != 2000 {
		t.Fatalf("completed=%v output=%v, want [2000]", res.Completed, res.Output)
	}
	if res.Faults.ForcedStale != 1 || res.Faults.StaleRestores != 1 {
		t.Errorf("fault report %+v, want one forced stale restore", res.Faults)
	}
}

// TestStaleRestoreAfterFRAMStoresFailsStop: rolling execution back past
// a commit whose FRAM data stores already landed cannot be made
// crash-consistent; the device must detect it and abort with
// ErrUnrecoverable instead of silently replaying against future memory.
func TestStaleRestoreAfterFRAMStoresFailsStop(t *testing.T) {
	inj := &stubInjector{stale: []bool{true}}
	prog := loopProgram(t, 2000, asm.FRAM) // counter mutates FRAM
	d, err := New(intermittentConfig(t, prog, inj), intervalStrategy{k: 300})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Run()
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Run() = %v, want ErrUnrecoverable", err)
	}
	var ue *UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("error %T does not carry UnrecoverableError", err)
	}
	if ue.LostStores == 0 {
		t.Error("unrecoverable error reports no lost FRAM stores")
	}
	if ue.RestoreSeq >= ue.NewestSeq {
		t.Errorf("restore seq %d should predate newest commit %d", ue.RestoreSeq, ue.NewestSeq)
	}
}

// jitStrategy models a runtime with no idempotent-replay guarantee
// (NVP's JIT threshold mode): restoring even the newest checkpoint is
// unsound once FRAM stores happened after it.
type jitStrategy struct{ intervalStrategy }

func (jitStrategy) ReplaySafe() bool { return false }

func TestReplayUnsafeStrategyFailsStop(t *testing.T) {
	inj := &stubInjector{} // no injected faults; natural brown-outs only
	prog := loopProgram(t, 2000, asm.FRAM)
	d, err := New(intermittentConfig(t, prog, inj), jitStrategy{intervalStrategy{k: 300}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Run()
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Run() = %v, want ErrUnrecoverable for replay-unsafe runtime with FRAM stores", err)
	}
}

// outputProgram emits 0..n-1 on the output port, one word per loop
// iteration. Unlike a memory counter (whose loaded register re-writes
// and thereby heals torn state on replay), emitted outputs cannot be
// reconstructed: a restore that rolls the committed output log back
// while keeping a newer loop index leaves a permanent gap.
func outputProgram(t *testing.T, n uint32) *asm.Program {
	t.Helper()
	b := asm.New("outstream")
	b.Li(isa.R2, n)
	b.Li(isa.R3, 0)
	b.Label("top")
	b.Out(isa.R3)
	b.Addi(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R2, "top")
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNaiveCommitDiverges is the protocol-level proof that the naive
// single-slot commit is broken: a torn-write schedule the two-phase
// commit absorbs makes the naive device restore a half-overwritten image
// — a new loop index paired with a rolled-back output log — and lose
// crash consistency. It must NOT complete with the oracle's output.
func TestNaiveCommitDiverges(t *testing.T) {
	// Tear right after the register file word holding the loop index
	// (w8+3): the torn image carries the new index, the stale record
	// keeps the old committed output length.
	script := []int{-1, -1, 11, -1, 11, -1, 11}
	prog := outputProgram(t, 2000)
	want := make([]uint32, 2000)
	for i := range want {
		want[i] = uint32(i)
	}

	run := func(naive bool) (*Result, error) {
		inj := &stubInjector{tears: append([]int(nil), script...), naive: naive}
		d, err := New(intermittentConfig(t, prog, inj), intervalStrategy{k: 300})
		if err != nil {
			t.Fatal(err)
		}
		return d.Run()
	}

	res, err := run(false)
	if err != nil || !res.Completed || !equalWords(res.Output, want) {
		t.Fatalf("two-phase commit failed the torn schedule: err=%v completed=%v outlen=%d", err, res != nil && res.Completed, len(res.Output))
	}

	nres, nerr := run(true)
	if nerr == nil && nres.Faults.InjectedTears == 0 {
		t.Fatal("tear schedule never fired; the scenario proves nothing")
	}
	if nerr == nil && nres.Completed && equalWords(nres.Output, want) {
		t.Fatal("naive single-slot commit survived torn writes with the correct output — it should have diverged")
	}
	t.Logf("naive commit caught: err=%v", nerr)
}

func equalWords(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
