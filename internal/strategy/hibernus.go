package strategy

import (
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/isa"
	"ehmodel/internal/obsv"
)

// Hibernus is the single-backup system of Balsamo et al.: an analog
// comparator watches the supply voltage, and when the stored energy can
// only just cover a full checkpoint, the system saves all volatile state
// once and sleeps until the supply dies (§II, §IV-B).
type Hibernus struct {
	base
	// Margin scales the backup-cost threshold; the backup fires when
	// stored energy ≤ Margin × cost of a full checkpoint. Values just
	// above 1 maximize work per period but risk incomplete backups
	// under load transients; the default is 2.
	Margin float64
	// CheckPeriod is the comparator sampling interval in cycles
	// (default 16).
	CheckPeriod uint64

	sinceCheck uint64
	armed      bool // backup not yet taken this period
}

// NewHibernus returns a Hibernus strategy with default margin and
// sampling period.
func NewHibernus() *Hibernus {
	return &Hibernus{Margin: 2, CheckPeriod: 16}
}

// Name implements device.Strategy.
func (h *Hibernus) Name() string { return "hibernus" }

// Boot arms the comparator for the new period.
func (h *Hibernus) Boot(*device.Device) *device.Payload {
	h.armed = true
	h.sinceCheck = 0
	return nil
}

// Reset loses the volatile comparator state.
func (h *Hibernus) Reset() {
	h.armed = false
	h.sinceCheck = 0
}

// PostStep samples the supply and triggers the one hibernation backup.
func (h *Hibernus) PostStep(d *device.Device, st cpu.Step) *device.Payload {
	if !h.armed {
		return nil
	}
	h.sinceCheck += st.Cycles
	if h.CheckPeriod > 0 && h.sinceCheck < h.CheckPeriod {
		return nil
	}
	h.sinceCheck = 0
	p := fullPayload(d)
	if d.EnergyExceeds(h.Margin * d.BackupCost(p)) {
		return nil
	}
	h.armed = false
	p.ThenSleep = true
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigThreshold), uint64(p.Bytes()))
	return &p
}

// Horizon promises no backup before the comparator's next sample: the
// batched engine ends its batch exactly at the cycle-count crossing
// where PostStep resets sinceCheck, so the sampling phase — and the
// stored energy the sample reads — match the per-step engine bit for
// bit. (With the default 16-cycle period this sits below the engine's
// minimum batch, so Hibernus effectively runs per-step; the promise
// still has to be exact for any larger CheckPeriod.)
func (h *Hibernus) Horizon(*device.Device) uint64 {
	if !h.armed {
		return device.HorizonInfinite
	}
	if h.CheckPeriod == 0 || h.sinceCheck >= h.CheckPeriod {
		return 1
	}
	return h.CheckPeriod - h.sinceCheck
}

// ObservedSys reports that the comparator ignores SYS codes.
func (h *Hibernus) ObservedSys() isa.SysMask { return 0 }

// FinalPayload commits the completed program's state.
func (h *Hibernus) FinalPayload(d *device.Device) device.Payload {
	return fullPayload(d)
}

var _ device.Strategy = (*Hibernus)(nil)
var _ device.Strategy = (*Timer)(nil)
