// Package device simulates a complete intermittent computing platform:
// an EH32 core, SRAM/FRAM memory, a storage capacitor charged by an
// ambient harvester, and a pluggable backup/restore runtime strategy.
//
// The simulator's accounting mirrors the EH model's taxonomy exactly.
// Every active period's cycles and energy are split into forward
// progress, backups, restores, dead (uncommitted) execution and idle
// time, so measured results can be compared against the model's
// predictions parameter-for-parameter (the validation of §V).
package device

import (
	"fmt"
	"math"
	"time"

	"ehmodel/internal/asm"
	"ehmodel/internal/cpu"
	"ehmodel/internal/energy"
	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
	"ehmodel/internal/obsv"
)

// AccessPreview describes the memory access the next instruction will
// make, computed before it executes so strategies like Clank can
// checkpoint ahead of idempotency-violating stores.
type AccessPreview struct {
	Valid bool
	Addr  uint32
	Size  uint8
	Store bool
}

// Payload describes what a backup (or the restore that mirrors it)
// saves.
type Payload struct {
	// ArchBytes is fixed architectural state: registers, PC, etc.
	ArchBytes int
	// AppBytes is application state accumulated since the last backup
	// (dirty data, SRAM snapshot, store-queue contents).
	AppBytes int
	// SaveSRAM snapshots volatile data memory contents so the restore
	// can reinstate them (full-memory checkpoint systems).
	SaveSRAM bool
	// ThenSleep puts the device into idle until the supply dies after
	// the backup commits — single-backup behaviour (Hibernus).
	ThenSleep bool
	// FlushCache marks the mixed-volatility cache clean when the
	// checkpoint commits: its dirty blocks are the AppBytes this backup
	// wrote to FRAM.
	FlushCache bool
}

// Bytes is the total checkpoint size.
func (p Payload) Bytes() int { return p.ArchBytes + p.AppBytes }

// Strategy is a backup/restore runtime policy. The device consults it
// around every instruction; the strategy requests backups by returning a
// non-nil Payload.
type Strategy interface {
	// Name identifies the strategy in results and logs.
	Name() string
	// Attach is called once before the run with the fully constructed
	// device, letting the strategy derive thresholds from its config.
	Attach(d *Device)
	// Boot is called at every power-on after state has been restored
	// (or cold-started). Strategies may request an immediate backup by
	// returning a payload (e.g. Clank checkpoints at boot).
	Boot(d *Device) *Payload
	// PreStep may request a backup before the given instruction
	// executes; acc previews its memory access.
	PreStep(d *Device, in isa.Instr, acc AccessPreview) *Payload
	// PostStep observes the executed instruction and may request a
	// backup after it (checkpoint sites, task ends, timers).
	PostStep(d *Device, st cpu.Step) *Payload
	// FinalPayload is the backup taken when the program halts, which
	// commits the remaining output.
	FinalPayload(d *Device) Payload
	// Horizon is the batched engine's planning hint: the strategy
	// promises that, starting from the current device state, it will not
	// request a backup for at least the returned number of executed
	// cycles — except at a SYS code it declared via SysObserver, where
	// the engine ends the batch and calls PostStep anyway. Returning
	// HorizonInfinite means "never on a cycle count" (site- or
	// SYS-driven strategies); returning 1 opts out of batching entirely
	// and keeps the exact per-step PreStep/PostStep protocol.
	//
	// The contract a Horizon > 1 buys into:
	//   - PreStep must return nil for every instruction in the window
	//     (the engine does not call it inside a batch);
	//   - PostStep is called once per batch with a synthesized Step
	//     whose Cycles is the whole batch's total and whose HasSys/Sys
	//     describe only the final instruction, so PostStep may read
	//     Cycles only as an amount to accumulate, never as "one
	//     instruction" — and must fire exactly when the per-step engine
	//     would (the engine ends a batch precisely at the horizon, so a
	//     cycle-counted trigger crosses on the same instruction);
	//   - PostStep is not called for a batch that ends in a halt (the
	//     per-step engine never calls it on the halt instruction
	//     either), so all volatile strategy state must be rebuilt by
	//     Boot/Reset rather than carried across a halt attempt.
	Horizon(d *Device) uint64
	// ReplaySafe reports whether the runtime guarantees that re-executing
	// from its last committed checkpoint stays crash-consistent even when
	// stores to nonvolatile data happened since — via idempotency
	// tracking (Clank, Ratchet) or a one-instruction replay window
	// (every-cycle NVP). Just-in-time runtimes that rely on a voltage
	// warning before death (threshold NVP) must return false: an unwarned
	// failure after uncheckpointed FRAM stores leaves no consistent state
	// to recover, and the restore path fail-stops with ErrUnrecoverable
	// instead of silently replaying. Runtimes that keep all mutable data
	// in checkpointed SRAM are unaffected either way.
	ReplaySafe() bool
	// Reset is called on power failure: all volatile tracking state
	// (buffers, timers) is lost.
	Reset()
}

// HorizonInfinite is the Strategy.Horizon result meaning "no
// cycle-counted backup trigger exists": the strategy only ever fires at
// declared SYS sites, or is disarmed.
const HorizonInfinite = ^uint64(0)

// InputProtector is optional Strategy metadata: a runtime that claims
// its protocol keeps committed input observations replay-safe (no
// committed SENSE observation duplicates one an earlier commit already
// persisted) implements it and returns true. The correctness oracle
// (internal/faults) cross-checks the claim — a claimed-protected
// runtime caught committing a replayed input is flagged with the claim
// noted, so broken metadata cannot hide a violation.
type InputProtector interface {
	InputsProtected() bool
}

// NaiveCommitter is optional Strategy metadata: a deliberately broken
// runtime variant (the auditor's known-bad target) declares that its
// commit protocol is the naive single-slot, unvalidated commit by
// returning true. Under fault injection the device then downgrades the
// checkpoint machinery exactly as the injector's own NaiveCommit mode
// does; without an injector attached behaviour is unchanged, so the
// broken variant stays bit-identical to its honest twin on clean power.
type NaiveCommitter interface {
	NaiveCommit() bool
}

// CacheSizer is optional Strategy metadata: a strategy whose memory
// model requires the mixed-volatility cache (CacheVolatile) declares
// the block size it needs. When the Config does not configure a cache,
// device.New applies the strategy's block size with the default
// geometry, so catalog-driven harnesses (audit, campaign, integration
// matrices) exercise cache-dependent runtimes without per-strategy
// Config plumbing.
type CacheSizer interface {
	CacheBlockSize() int
}

// CacheKeyer is optional Strategy metadata for the memoization layer
// (internal/sweep): a strategy that can describe every parameter
// affecting its behaviour as a stable string implements it, making its
// runs content-addressable in the result store. The returned key must
// read the live field values (drivers mutate parameters after
// construction) and must cover everything that could change a Result —
// two strategy instances with equal Name() and equal CacheKey() must
// produce bit-identical simulations. Returning "" opts this instance
// out (e.g. a wrapper holding run-specific state the driver reads back),
// and its cells bypass the store. Strategies without the interface
// bypass too.
type CacheKeyer interface {
	CacheKey() string
}

// RegionScheme says how a runtime delimits its atomic regions — the
// intervals between commit points whose worst-case energy the static
// WCEC verifier (internal/analyze) bounds. A verifier verdict is only
// meaningful for a runtime whose regions match the verdict's mode, so
// preflights key their refusals on this introspection.
type RegionScheme int

const (
	// RegionDynamic: commit points are chosen at runtime (voltage
	// thresholds, watchdogs, idempotency tracking) and do not correspond
	// to any static region table. Static checkpoint-mode verdicts are
	// advisory at best for these runtimes.
	RegionDynamic RegionScheme = iota
	// RegionCheckpointSites: commits happen only at the program's
	// checkpoint-site SYS instructions (analyze.DefaultBoundaries) — the
	// WCEC verifier's checkpoint mode.
	RegionCheckpointSites
	// RegionTaskBoundaries: commits happen only at the static task
	// boundaries of analyze.Tasks — the WCEC verifier's task mode.
	RegionTaskBoundaries
)

func (s RegionScheme) String() string {
	switch s {
	case RegionDynamic:
		return "dynamic"
	case RegionCheckpointSites:
		return "checkpoint-sites"
	case RegionTaskBoundaries:
		return "task-boundaries"
	}
	return fmt.Sprintf("RegionScheme(%d)", int(s))
}

// RegionObserver is optional Strategy metadata: a runtime whose commit
// points coincide with a static region scheme declares it, which lets
// the WCEC preflight (ehsim -wcec-check) refuse statically-infeasible
// configurations before simulating them. Strategies without it are
// treated as RegionDynamic.
type RegionObserver interface {
	Regions() RegionScheme
}

// SysObserver is the optional companion to Strategy.Horizon: a strategy
// whose PostStep reacts to specific SYS codes (checkpoint sites, task
// boundaries) declares them so the batched engine ends a batch — and
// delivers a PostStep — exactly there. Strategies with Horizon > 1 that
// do not implement SysObserver are conservatively treated as observing
// every SYS code, which keeps them correct at the price of a batch
// boundary per SYS instruction.
type SysObserver interface {
	ObservedSys() isa.SysMask
}

// Engine selects the active-phase execution loop.
type Engine int

const (
	// EngineBatched (the zero value) runs the event-horizon engine:
	// instructions execute in batches bounded by the next event (power
	// death, strategy trigger, scheduled fault, poll chunk) and each
	// batch settles once, as per-class cycle counts times the per-cycle
	// energies on the capacitor's integer ledger.
	EngineBatched Engine = iota
	// EngineReference runs the original per-instruction loop. Results
	// are byte-identical to EngineBatched (the equivalence oracle test
	// proves it); it is the trust anchor that test checks against and
	// the reference row of the engine benchmark.
	EngineReference
)

func (e Engine) String() string {
	switch e {
	case EngineBatched:
		return "batched"
	case EngineReference:
		return "reference"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Config assembles a device.
type Config struct {
	Prog *asm.Program

	// Engine picks the active-phase loop; the zero value is the
	// batched engine. See EngineBatched/EngineReference.
	Engine Engine

	SRAMSize int // bytes; default 8 KiB
	FRAMSize int // bytes; default 256 KiB

	Power energy.PowerModel

	// Capacitor and thresholds. The device begins executing at VOn and
	// browns out at VOff (Fig. 1's minimum threshold behaviour).
	CapC    float64 // farads
	CapVMax float64
	VOn     float64
	VOff    float64

	// Harvester charges the capacitor; nil models a bench supply that
	// recharges instantly between fixed-energy active periods.
	Harvester *energy.Harvester

	// NVM checkpoint bandwidths in bytes/cycle (σ_B, σ_R of Table I).
	SigmaB float64
	SigmaR float64
	// Extra energy per checkpointed byte beyond the memory-class cycle
	// energy (models expensive NVM writes, Ω_B/Ω_R adjustments).
	OmegaBExtra float64
	OmegaRExtra float64

	// Mixed-volatility cache (§VI-A): when CacheBlockSize > 0, data
	// accesses run through a volatile writeback cache in front of FRAM.
	// Misses pay a block-fill penalty at σ_R and dirty evictions a
	// writeback at σ_B; the cache's dirty blocks are the backup payload
	// cache-aware strategies flush at checkpoints. The cache is a
	// timing/energy model — architectural data still lives in the
	// memory system — and is invalidated on every power failure.
	CacheBlockSize int
	CacheSets      int
	CacheWays      int

	// Run limits.
	MaxCycles  uint64 // total consumed cycles; default 500M
	MaxPeriods int    // default 100k

	// Faults, when non-nil, attacks the run: scheduled supply cuts, torn
	// checkpoint writes, bit flips in stored checkpoints and forced
	// stale restores (see internal/faults). Attaching an injector also
	// switches backup/restore to word-granular accounting that charges
	// the commit-record transfers to τ_B/τ_R; with a nil injector the
	// accounting is bit-identical to the assumed-atomic simulator.
	Faults FaultInjector

	// RunTimeout is a wall-clock budget for one Run call, enforced by a
	// coarse cycle-batch check so a runaway kernel or pathological
	// harvester configuration cannot wedge a sweep. Expiry aborts the
	// run with a *DeadlineError wrapping ErrDeadlineExceeded. Zero
	// means no deadline. The check never touches simulation state, so
	// results are unaffected unless the deadline actually fires.
	RunTimeout time.Duration

	// Interrupt, when non-nil, is polled on the same coarse batch
	// schedule as RunTimeout; a non-nil return aborts the run with that
	// error. The parallel sweep engine (internal/runner) wires context
	// cancellation through this hook.
	Interrupt func() error

	// Observe receives the run's lifecycle events (internal/obsv). Nil
	// falls back to the process-wide SetDefaultObserver provider, and
	// when that is unset too, observability is disabled at the cost of
	// a nil check per emission site — the engine benchmark guard pins
	// that path at zero overhead. A device-private tracer may assume
	// single-goroutine delivery.
	Observe obsv.Tracer

	// DetectLivelock enables the exact-repeat livelock diagnosis: on a
	// bench supply (nil Harvester) with no fault injector, a full charge
	// that commits nothing, leaves no nonvolatile side effects, and dies
	// at the same PC with the same uncommitted cycle count as the charge
	// before it will repeat identically forever; Run then fail-stops
	// with a *NoProgressError (Livelock=true) naming the region entry
	// instead of burning MaxPeriods. Ignored under a harvester or an
	// injector, where consecutive periods legitimately differ.
	DetectLivelock bool

	// Record, when non-nil, logs the run's observation sequence (input
	// reads, committed outputs, checkpoint/restore lineage) for the
	// formal correctness oracle (internal/faults). A recorded run
	// executes every instruction through the per-step loop, so every
	// input read and store gets an exact cycle stamp; results are
	// unchanged (see obslog.go).
	Record *ObsLog
}

func (c *Config) setDefaults() {
	if c.SRAMSize == 0 {
		c.SRAMSize = 8 * 1024
	}
	if c.FRAMSize == 0 {
		c.FRAMSize = 256 * 1024
	}
	if c.SigmaB == 0 {
		c.SigmaB = 2 // FRAM word per two cycles (§III)
	}
	if c.SigmaR == 0 {
		c.SigmaR = 2
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 500_000_000
	}
	if c.MaxPeriods == 0 {
		c.MaxPeriods = 100_000
	}
}

// WithDefaults returns the config exactly as a device built from it
// reports via Cfg(): zero fields filled with their defaults and the
// strategy's CacheSizer block size applied. Memoization layers use it to
// reproduce the defaulted config for a cache hit without constructing a
// device, and to hash equivalent configs identically however they were
// spelled.
func (c Config) WithDefaults(s Strategy) Config {
	c.setDefaults()
	if c.CacheBlockSize == 0 && s != nil {
		if cs, ok := s.(CacheSizer); ok {
			c.CacheBlockSize = cs.CacheBlockSize()
		}
	}
	return c
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Prog == nil || len(c.Prog.Code) == 0 {
		return fmt.Errorf("device: config needs a program")
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	if err := energy.CheckCapacitor(c.CapC, c.CapVMax); err != nil {
		return fmt.Errorf("device: %w", err)
	}
	if !(0 <= c.VOff && c.VOff < c.VOn && c.VOn <= c.CapVMax) {
		return fmt.Errorf("device: need 0 ≤ VOff < VOn ≤ VMax, have %g/%g/%g", c.VOff, c.VOn, c.CapVMax)
	}
	if c.SigmaB <= 0 || c.SigmaR <= 0 {
		return fmt.Errorf("device: σ_B=%g σ_R=%g must be positive", c.SigmaB, c.SigmaR)
	}
	if c.OmegaBExtra < 0 || c.OmegaRExtra < 0 {
		return fmt.Errorf("device: Ω extras must be ≥ 0")
	}
	if c.RunTimeout < 0 {
		return fmt.Errorf("device: RunTimeout %v must be ≥ 0", c.RunTimeout)
	}
	if c.Engine < EngineBatched || c.Engine > EngineReference {
		return fmt.Errorf("device: unknown engine %d", int(c.Engine))
	}
	return nil
}

// FixedSupplyConfig builds the capacitor parameters for a bench-style
// supply delivering exactly eJoules per active period: the capacitor is
// sized so its usable energy between VOn and VOff equals eJoules, and
// with no harvester the recharge is instantaneous.
func FixedSupplyConfig(eJoules float64) (capC, vMax, vOn, vOff float64) {
	// choose VOn = 3 V, VOff = 1.8 V (MSP430-like thresholds)
	vOn, vOff = 3.0, 1.8
	capC = 2 * eJoules / (vOn*vOn - vOff*vOff)
	return capC, vOn, vOn, vOff
}

// Device is one simulated intermittent platform.
type Device struct {
	cfg   Config
	strat Strategy

	core  *cpu.Core
	mem   *mem.System
	cap   *energy.Capacitor
	cache *mem.Cache // nil when not configured

	// store is the FRAM checkpoint area the two-phase commit protocol
	// writes to (see ckpt.go); inj is the attached fault injector, nil
	// for honest power.
	store *energy.CheckpointArea
	inj   FaultInjector

	// Volatile mirrors of nonvolatile state, resynced from the store at
	// every boot: the committed output stream, which slot holds the live
	// checkpoint (-1 none), and whether a restorable checkpoint exists.
	committedOut []uint32
	activeSlot   int
	hasCkpt      bool
	// everCommitted distinguishes a cold start that lost a checkpoint
	// (counted as a recovery event) from one that never had any.
	everCommitted bool
	// maxSeq is the newest commit sequence number that ever landed — the
	// ground truth the staleness guard compares restore targets against.
	maxSeq uint64
	// stratNaive mirrors the strategy's NaiveCommitter claim: the
	// attached runtime itself selects the single-slot unvalidated
	// commit (alpaca-naive). Effective only while an injector is
	// attached — see naiveCommit.
	stratNaive bool

	cycles uint64 // total consumed cycles (exec+backup+restore+idle)
	// Simulated time is derived from the cycle count: the active period
	// began at cycle cBase and time tBase, so how execution was split
	// into batches cannot change it (see timeAt).
	tBase float64
	cBase uint64

	// Ledger thresholds in attojoules: ½·C·V² at VOn and VOff, the
	// per-class cycle energies ε, and the worst active-class ε.
	eOn, eOff int64
	epc       [energy.NumClasses]int64
	maxEPC    int64
	// nextGrid is the absolute cycle at which the current harvest-grid
	// cell ends (noGrid on a bench supply); see creditGrid.
	nextGrid uint64
	// spent counts the energy removed from the capacitor (draws, power
	// cuts, tears) since the run began; each accounting bracket charges
	// its category with the difference across it.
	spent int64

	// Interrupt/deadline polling (run.go): wall-clock start of the
	// current Run and the simulated work since the last real check.
	runStart  time.Time
	sincePoll uint64

	// Batched-engine state (run.go): the SYS codes that end a batch, and
	// the executed cycles each engine path ran (batches vs per step).
	stopSys     isa.SysMask
	batchCycles uint64
	stepCycles  uint64

	// obs is the attached lifecycle tracer; nil means observability is
	// disabled and every emission site reduces to this nil check
	// (observe.go).
	obs obsv.Tracer

	// rec is the attached observation recorder (obslog.go); nil means
	// no recording and each hook reduces to a nil check. bkupStart
	// remembers the consumed-cycle position the current backup began
	// at, for the recorder's commit records.
	rec       *ObsLog
	bkupStart uint64

	// Livelock diagnosis state (run.go): where the last brown-out hit,
	// the boot PC of the current period (the atomic-region entry), and
	// the previous period's signature for the exact-repeat check.
	deathPC        uint32
	deathSince     uint64
	bootPC         uint32
	repeatArmed    bool
	lastDeathPC    uint32
	lastDeadCycles uint64
	lastFramWrites uint64

	// per-period running counters
	period        PeriodStats
	led           ledger  // the period's energy split, aJ
	sinceCommit   uint64  // executed cycles not yet committed by a backup
	pendingE      int64   // energy of those uncommitted cycles, aJ
	execSinceBkup uint64  // executed cycles since last backup (for τ_B)
	chargeS       float64 // recharge time preceding the current period

	result Result
	halted bool // final commit landed; run complete
}

// New builds a device running prog under strategy s.
func New(cfg Config, s Strategy) (*Device, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("device: nil strategy")
	}
	if cfg.CacheBlockSize == 0 {
		if cs, ok := s.(CacheSizer); ok {
			cfg.CacheBlockSize = cs.CacheBlockSize()
		}
	}
	ms, err := mem.NewSystem(cfg.SRAMSize, cfg.FRAMSize)
	if err != nil {
		return nil, err
	}
	cap_, err := energy.NewCapacitor(cfg.CapC, cfg.CapVMax, 0)
	if err != nil {
		return nil, err
	}
	d := &Device{
		cfg:        cfg,
		strat:      s,
		core:       &cpu.Core{},
		mem:        ms,
		cap:        cap_,
		store:      energy.NewCheckpointArea(),
		inj:        cfg.Faults,
		activeSlot: -1,
	}
	if cfg.CacheBlockSize > 0 {
		sets, ways := cfg.CacheSets, cfg.CacheWays
		if sets == 0 {
			sets = 16
		}
		if ways == 0 {
			ways = 2
		}
		cache, err := mem.NewCache(cfg.CacheBlockSize, sets, ways)
		if err != nil {
			return nil, err
		}
		d.cache = cache
	}
	d.obs = resolveObserver(cfg.Observe)
	d.eOn = energy.EnergyAt(cfg.CapC, cfg.VOn)
	d.eOff = energy.EnergyAt(cfg.CapC, cfg.VOff)
	for cl := range d.epc {
		d.epc[cl] = energy.AJ(cfg.Power.EnergyPerCycle(energy.InstrClass(cl)))
	}
	d.maxEPC = max(d.epc[energy.ClassALU], d.epc[energy.ClassMem])
	d.nextGrid = noGrid
	if so, ok := s.(SysObserver); ok {
		d.stopSys = so.ObservedSys()
	} else {
		d.stopSys = isa.AllSys
	}
	if nc, ok := s.(NaiveCommitter); ok && nc.NaiveCommit() {
		d.stratNaive = true
	}
	d.rec = cfg.Record
	s.Attach(d)
	return d, nil
}

// Cache returns the mixed-volatility cache model, or nil when the
// device is configured without one. Cache-aware strategies read its
// dirty-block payload and flush it at checkpoints.
func (d *Device) Cache() *mem.Cache { return d.cache }

// --- accessors strategies use ---

// Cfg returns the device configuration.
func (d *Device) Cfg() Config { return d.cfg }

// PC returns the core's current program counter. In a PreStep hook it
// is the instruction about to execute (and the PC a backup taken there
// resumes at); in PostStep it has already advanced past the executed
// instruction. Task runtimes key their boundary table on it.
func (d *Device) PC() uint32 { return d.core.PC }

// EnergyExceeds reports whether the usable energy above VOff exceeds j
// joules — the threshold comparator of Hibernus-style runtimes. It
// compares on the ledger with j rounded to attojoules, exactly as
// CyclesAboveEnergy does, so a batch that horizon bounds never skips
// an instruction after which the comparator would have fired.
func (d *Device) EnergyExceeds(j float64) bool {
	return d.cap.Stored()-d.eOff > energy.AJ(j)
}

// FullSupply returns the usable energy of a freshly charged capacitor —
// the model's E. Threshold-based strategies use it to place their
// trigger voltage relative to the period budget.
func (d *Device) FullSupply() float64 {
	return energy.Joules(d.eOn - d.eOff)
}

// ExecSinceBackup returns executed cycles since the last committed
// backup — the live τ_B counter watchdog strategies use.
func (d *Device) ExecSinceBackup() uint64 { return d.execSinceBkup }

// EnginePath splits the executed cycles of the device's run by the
// engine path that ran them: in StepN batches and through the per-step
// protocol. Together they are every progress and dead cycle; the
// EvEnginePath event carries the same pair.
func (d *Device) EnginePath() (batch, step uint64) { return d.batchCycles, d.stepCycles }

// SRAMFootprint is the number of volatile bytes a full-memory
// checkpoint must save: the program's initialized SRAM data, word
// aligned, or at least one word.
func (d *Device) SRAMFootprint() int {
	n := len(d.cfg.Prog.SRAMImage)
	if n == 0 {
		n = 4
	}
	return (n + 3) &^ 3
}

// BackupCost estimates the energy a backup of the payload would consume
// — what Hibernus-style strategies need to place their voltage
// threshold.
func (d *Device) BackupCost(p Payload) float64 {
	cycles := d.transferCycles(p.Bytes(), d.cfg.SigmaB)
	return float64(cycles)*d.cfg.Power.EnergyPerCycle(energy.ClassMem) +
		float64(p.Bytes())*d.cfg.OmegaBExtra
}

// HasCheckpoint reports whether a restorable committed checkpoint
// exists. Under fault injection this can revert to false when both
// checkpoint slots are corrupted and the device cold-restarts.
func (d *Device) HasCheckpoint() bool { return d.hasCkpt }

// CyclesAboveEnergy returns how many cycles the device can start
// instructions in while EnergyExceeds(target) provably holds after
// every one: the exact integer quotient of the headroom by the worst
// active class's ε, less the MaxStepCycles−1 a batch's last instruction
// may overrun. Harvesting only adds energy and is ignored. Threshold
// strategies use it as their Horizon, the engine as its brown-out
// horizon (target 0).
func (d *Device) CyclesAboveEnergy(target float64) uint64 {
	if d.maxEPC <= 0 {
		return HorizonInfinite
	}
	avail := d.cap.Stored() - d.eOff - energy.AJ(target)
	if avail <= 0 {
		return 0
	}
	n := uint64((avail-1)/d.maxEPC) + 1
	if n <= cpu.MaxStepCycles {
		return 0
	}
	return n - cpu.MaxStepCycles
}

func (d *Device) transferCycles(bytes int, sigma float64) uint64 {
	if bytes <= 0 {
		return 0
	}
	return uint64(math.Ceil(float64(bytes) / sigma))
}

// noGrid is nextGrid on a bench supply: no harvest cell ever ends.
const noGrid = ^uint64(0)

// harvestGrid is the harvest-credit grid in cycles. Energy harvested
// while the device is on is credited per grid cell, when execution
// completes the cell, so the credit depends only on where the cell lies
// and never on how execution was split into steps or batches. 256
// cycles (16 µs at 16 MHz) is far finer than any harvest trace feature.
const harvestGrid = 256

// consume draws energy for n cycles of the given class, after crediting
// the harvest-grid cells those cycles complete, and reports whether the
// supply survived (stayed at or above VOff).
func (d *Device) consume(n uint64, class energy.InstrClass) bool {
	if n == 0 {
		return d.cap.Stored() >= d.eOff
	}
	d.advance(n)
	alive := d.drain(int64(n) * d.epc[class])
	// Scheduled supply faults fire independent of the capacitor model:
	// the injector empties the store mid-flight, wherever execution is.
	if alive && d.inj != nil && d.inj.PowerCutDue(d.cycles) {
		d.empty()
		d.result.Faults.PowerCuts++
		if d.obs != nil {
			d.emit(obsv.EvFaultPowerCut, 0, 0, 0)
		}
		return false
	}
	return alive
}

// advance moves the cycle count forward by n, crediting every harvest
// cell that completes.
func (d *Device) advance(n uint64) {
	d.cycles += n
	for d.cycles >= d.nextGrid {
		d.credit(d.nextGrid-harvestGrid, harvestGrid)
		d.nextGrid += harvestGrid
	}
}

// credit stores the energy the harvester delivers over the n cycles
// starting at absolute cycle c0 of the current period.
func (d *Device) credit(c0, n uint64) {
	d.led.harvested += d.cap.Store(d.cellHarvest(c0, n))
}

// cellHarvest is the harvester's yield over n cycles from cycle c0 of
// the current period, rounded to attojoules.
func (d *Device) cellHarvest(c0, n uint64) int64 {
	return energy.AJ(d.cfg.Harvester.EnergyOver(d.timeAt(c0), float64(n)*d.cfg.Power.CyclePeriod()))
}

// timeAt is the simulated time at cycle c of the current period. The
// explicit conversion rounds the product before the sum, so no
// architecture fuses the two into a multiply-add.
func (d *Device) timeAt(c uint64) float64 {
	return d.tBase + float64(float64(c-d.cBase)*d.cfg.Power.CyclePeriod())
}

// now is the current simulated time.
func (d *Device) now() float64 { return d.timeAt(d.cycles) }

// drain removes aj attojoules (none when aj ≤ 0) and reports whether
// the supply stayed at or above VOff.
func (d *Device) drain(aj int64) bool {
	removed, ok := d.cap.Draw(aj)
	d.spent += removed
	return ok && d.cap.Stored() >= d.eOff
}

// empty drops the store to zero — a supply cut or injected tear.
func (d *Device) empty() {
	d.spent += d.cap.Stored()
	d.cap.SetStored(0)
}

// drawExtra draws flat energy (per-byte NVM surcharges) with no time
// passing.
func (d *Device) drawExtra(e float64) bool { return d.drain(energy.AJ(e)) }
