package strategy

import (
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/obsv"
)

// Speculative is the §IV-A2 design point: a multi-backup timer that
// additionally watches the supply and, when only a safety margin's
// worth of energy remains, takes one final backup and sleeps — trading
// up to τ_B/2 of dead execution for a small idle tail. Its progress
// approaches the model's best-case (τ_D = 0) bound, which the paper
// identifies as the ceiling for speculative schedulers like
// Spendthrift.
type Speculative struct {
	base
	// TauB is the periodic backup interval in executed cycles.
	TauB uint64
	// AlphaB is application state per cycle (payload sizing, as Timer).
	AlphaB float64
	// Margin scales the final-backup threshold (default 1.3 — just
	// enough headroom to finish the backup).
	Margin float64
	// CheckPeriod is the supply-sampling interval in cycles (default 16).
	CheckPeriod uint64

	sinceCheck uint64
	armed      bool
}

// NewSpeculative returns the strategy with defaults.
func NewSpeculative(tauB uint64, alphaB float64) *Speculative {
	return &Speculative{TauB: tauB, AlphaB: alphaB, Margin: 1.3, CheckPeriod: 16}
}

// Name implements device.Strategy.
func (s *Speculative) Name() string { return "speculative" }

// Boot arms the end-of-period monitor.
func (s *Speculative) Boot(*device.Device) *device.Payload {
	s.armed = true
	s.sinceCheck = 0
	return nil
}

// Reset loses the monitor state.
func (s *Speculative) Reset() {
	s.armed = false
	s.sinceCheck = 0
}

func (s *Speculative) payload(d *device.Device, cycles uint64) device.Payload {
	return device.Payload{
		ArchBytes: cpu.ArchStateBytes,
		AppBytes:  int(s.AlphaB * float64(cycles)),
		SaveSRAM:  true,
	}
}

// PostStep fires periodic backups and the speculative final one.
func (s *Speculative) PostStep(d *device.Device, st cpu.Step) *device.Payload {
	if s.TauB > 0 && d.ExecSinceBackup() >= s.TauB {
		d.Trace(obsv.EvTrigger, uint64(obsv.TrigTimer), d.ExecSinceBackup())
		p := s.payload(d, d.ExecSinceBackup())
		return &p
	}
	if !s.armed {
		return nil
	}
	s.sinceCheck += st.Cycles
	if s.CheckPeriod > 0 && s.sinceCheck < s.CheckPeriod {
		return nil
	}
	s.sinceCheck = 0
	p := s.payload(d, d.ExecSinceBackup())
	if d.EnergyExceeds(s.Margin * d.BackupCost(p)) {
		return nil
	}
	s.armed = false
	p.ThenSleep = true
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigThreshold), uint64(p.Bytes()))
	return &p
}

// Horizon stays at 1 (per-step) deliberately: PostStep returns on the
// TauB branch *before* accumulating sinceCheck, so the comparator's
// sampling phase depends on which individual instructions coincide with
// watchdog firings. A batch would accumulate the whole window into
// sinceCheck and shift that phase, diverging from the per-step engine.
func (s *Speculative) Horizon(*device.Device) uint64 { return 1 }

// FinalPayload commits the remaining interval at halt.
func (s *Speculative) FinalPayload(d *device.Device) device.Payload {
	return s.payload(d, d.ExecSinceBackup())
}

var _ device.Strategy = (*Speculative)(nil)
