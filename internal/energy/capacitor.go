// Package energy models the power side of an energy-harvesting device
// (Fig. 1 of the paper): a transducer harvesting from an ambient source,
// a storage capacitor with power-on/power-off thresholds, the
// microcontroller power model that converts instruction classes to
// joules per cycle, and an ADC-style voltage monitor.
package energy

import (
	"fmt"
	"math"
)

// The capacitor's energy ledger counts attojoules (10⁻¹⁸ J). At the
// paper's 1.05 mW and 16 MHz one ALU cycle is exactly 65 625 000 aJ, so
// per-cycle energies are integers and ledger sums are exact and
// associative. MaxLedgerAJ bounds a full store, leaving an int64 ledger
// headroom for a batch's draw and harvest sums on top of it.
const MaxLedgerAJ = int64(1) << 62

// AJ rounds j joules to the nearest attojoule, saturating at the int64
// range. It inverts Joules exactly for ledgers below 2⁵² aJ.
func AJ(j float64) int64 {
	return int64(max(min(math.Round(j*1e18), 0x1p63-1024), -0x1p63))
}

// Joules converts an attojoule count back to joules (one correctly
// rounded division: 10¹⁸ is exact in float64).
func Joules(aj int64) float64 { return float64(aj) / 1e18 }

// EnergyAt returns ½·C·V², the energy a capacitance c holds at voltage
// v, in attojoules — the form voltage thresholds take on the ledger.
func EnergyAt(c, v float64) int64 { return AJ(0.5 * c * v * v) }

// Capacitor stores harvested energy. Its state is the stored energy
// E = ½·C·V² as an integer attojoule ledger; voltage is derived on
// demand for the reports that read it.
type Capacitor struct {
	C    float64 // capacitance in farads, > 0
	VMax float64 // maximum (rated) voltage, > 0
	e    int64   // stored energy, aJ
	eMax int64   // ½·C·VMax², aJ
}

// CheckCapacitor validates a capacitance and rating: both positive, and
// a full store within the ledger (½·C·VMax² ≤ MaxLedgerAJ).
func CheckCapacitor(c, vMax float64) error {
	if c <= 0 {
		return fmt.Errorf("energy: capacitance must be > 0, got %g", c)
	}
	if vMax <= 0 {
		return fmt.Errorf("energy: rated voltage must be > 0, got %g", vMax)
	}
	if full := 0.5 * c * vMax * vMax * 1e18; !(full <= float64(MaxLedgerAJ)) {
		return fmt.Errorf("energy: capacitor holds %g J at %g V, above the 2⁶² aJ ledger limit", 0.5*c*vMax*vMax, vMax)
	}
	return nil
}

// NewCapacitor returns a capacitor at the given initial voltage.
func NewCapacitor(c, vMax, v0 float64) (*Capacitor, error) {
	if err := CheckCapacitor(c, vMax); err != nil {
		return nil, err
	}
	if v0 < 0 || v0 > vMax {
		return nil, fmt.Errorf("energy: initial voltage %g outside [0, %g]", v0, vMax)
	}
	cp := &Capacitor{C: c, VMax: vMax, eMax: EnergyAt(c, vMax)}
	cp.SetVoltage(v0)
	return cp, nil
}

// Voltage returns the current voltage, √(2E/C).
func (c *Capacitor) Voltage() float64 { return math.Sqrt(2 * Joules(c.e) / c.C) }

// Energy returns the stored energy in joules.
func (c *Capacitor) Energy() float64 { return Joules(c.e) }

// Stored returns the stored energy in attojoules.
func (c *Capacitor) Stored() int64 { return c.e }

// Room returns the energy the capacitor can still absorb before its
// rated voltage clamps further deposits, in attojoules.
func (c *Capacitor) Room() int64 { return c.eMax - c.e }

// SetVoltage forces the voltage (clamped to [0, VMax]); used to reset
// simulations.
func (c *Capacitor) SetVoltage(v float64) {
	c.SetStored(EnergyAt(c.C, max(v, 0)))
}

// SetStored forces the stored energy in attojoules, clamped to
// [0, ½·C·VMax²].
func (c *Capacitor) SetStored(aj int64) {
	c.e = min(max(aj, 0), c.eMax)
}

// Store deposits aj attojoules, clamping at the rated voltage. It
// returns the energy actually absorbed (excess is discarded, as a real
// regulator would shunt it).
func (c *Capacitor) Store(aj int64) int64 {
	if aj <= 0 {
		return 0
	}
	if room := c.eMax - c.e; aj > room {
		aj = room
	}
	c.e += aj
	return aj
}

// Draw removes aj attojoules and returns the energy actually removed.
// If the store holds no more than aj the capacitor is emptied and ok
// is false — the draw that caused the brownout.
func (c *Capacitor) Draw(aj int64) (removed int64, ok bool) {
	if aj <= 0 {
		return 0, true
	}
	if aj >= c.e {
		removed = c.e
		c.e = 0
		return removed, false
	}
	c.e -= aj
	return aj, true
}

// UsableEnergy returns the energy available between two voltage
// thresholds, ½·C·(vHi² − vLo²) — the paper's per-active-period supply E
// when vHi = V_on and vLo = V_off.
func (c *Capacitor) UsableEnergy(vHi, vLo float64) float64 {
	return 0.5 * c.C * (vHi*vHi - vLo*vLo)
}
