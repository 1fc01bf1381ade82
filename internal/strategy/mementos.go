package strategy

import (
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/isa"
	"ehmodel/internal/obsv"
)

// Mementos is the checkpoint-site system of Ransford et al.: the
// compiler inserts voltage checks at loop latches and function returns
// (SysChkpt sites in EH32 programs); when the supply is below a
// threshold at a site, all volatile state is checkpointed and execution
// continues until the supply dies or recovers (§II).
type Mementos struct {
	base
	// Margin scales the minimum threshold as a multiple of the full
	// checkpoint cost.
	Margin float64
	// SupplyFrac places the voltage-check threshold as a fraction of
	// the full period supply. Mementos can only act at program sites,
	// whose spacing is workload-dependent, so the real system sets its
	// V_check conservatively high; 0.5 means "start checkpointing once
	// half the energy is gone" (default 0.5).
	SupplyFrac float64
	// MinGapCycles suppresses back-to-back checkpoints at consecutive
	// sites while below threshold; at least this many executed cycles
	// must separate two backups (default 512).
	MinGapCycles uint64
}

// NewMementos returns a Mementos strategy with default parameters.
func NewMementos() *Mementos {
	return &Mementos{Margin: 3, SupplyFrac: 0.5, MinGapCycles: 512}
}

// Name implements device.Strategy.
func (m *Mementos) Name() string { return "mementos" }

// PostStep checkpoints at SysChkpt sites when the supply is low.
func (m *Mementos) PostStep(d *device.Device, st cpu.Step) *device.Payload {
	if !st.HasSys || st.Sys != isa.SysChkpt {
		return nil
	}
	if d.ExecSinceBackup() < m.MinGapCycles {
		return nil
	}
	p := fullPayload(d)
	threshold := m.Margin * d.BackupCost(p)
	if frac := m.SupplyFrac * d.FullSupply(); frac > threshold {
		threshold = frac
	}
	if d.EnergyExceeds(threshold) {
		return nil
	}
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigSite), uint64(p.Bytes()))
	return &p
}

// Horizon is unbounded: Mementos acts only at compiler-inserted sites,
// never on a cycle count, so batches are limited solely by the SYS
// sites it declares below.
func (m *Mementos) Horizon(*device.Device) uint64 { return device.HorizonInfinite }

// ObservedSys declares the checkpoint sites, so the batched engine ends
// a batch — and delivers PostStep — at every SysChkpt and nowhere else.
func (m *Mementos) ObservedSys() isa.SysMask { return isa.SysChkpt.Mask() }

// FinalPayload commits the completed program's state.
func (m *Mementos) FinalPayload(d *device.Device) device.Payload {
	return fullPayload(d)
}

// Regions implements device.RegionObserver: Mementos commits only at
// the program's checkpoint-site SYS instructions (the voltage gate
// selects *which* sites commit, never a site-free PC), so checkpoint-
// mode WCEC verdicts apply.
func (m *Mementos) Regions() device.RegionScheme { return device.RegionCheckpointSites }

var (
	_ device.Strategy       = (*Mementos)(nil)
	_ device.RegionObserver = (*Mementos)(nil)
)
