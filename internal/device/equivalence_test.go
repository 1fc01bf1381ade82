package device_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/faults"
	"ehmodel/internal/isa"
	"ehmodel/internal/obsv"
	"ehmodel/internal/strategy"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// This file holds the lock-step equivalence oracle for the batched
// execution engine: for every workload × strategy × supply shape
// (bench, harvested RF trace, fault-injected), a run under
// EngineBatched must produce a Result byte-identical to EngineReference
// — same periods, same backups, same committed output, same
// floating-point energy accounting to the last bit. Short mode and
// race-detector builds run a representative slice; a plain
// `go test` without -short runs the full matrix (that is `make
// check`'s race-free test pass — see equivFullMatrix).

// violationWorder is implemented by Clank; its WAR-hazard word set must
// also survive the engine swap.
type violationWorder interface {
	ViolationWords() []uint32
}

// benchEquivCfg builds the bench-supply config the integration tests
// use: per-period energy expressed in ALU cycles.
func benchEquivCfg(prog *asm.Program, cyclesOfEnergy float64) device.Config {
	pm := energy.MSP430Power()
	e := cyclesOfEnergy * pm.EnergyPerCycle(energy.ClassALU)
	capC, vmax, von, voff := device.FixedSupplyConfig(e)
	return device.Config{
		Prog:       prog,
		Power:      pm,
		CapC:       capC,
		CapVMax:    vmax,
		VOn:        von,
		VOff:       voff,
		MaxPeriods: 20000,
		MaxCycles:  2_000_000_000,
	}
}

// runEngines executes the same configuration under both engines —
// fresh strategy, fresh injector, fresh harvester per run via the make
// callback — and fails the test on any observable difference.
func runEngines(t *testing.T, make func(eng device.Engine) (*device.Device, device.Strategy)) {
	t.Helper()
	dRef, sRef := make(device.EngineReference)
	resRef, errRef := dRef.Run()
	dBat, sBat := make(device.EngineBatched)
	resBat, errBat := dBat.Run()

	if (errRef == nil) != (errBat == nil) ||
		(errRef != nil && errRef.Error() != errBat.Error()) {
		t.Fatalf("engines disagree on error:\nreference: %v\nbatched:   %v", errRef, errBat)
	}
	if errRef != nil {
		return
	}
	if !reflect.DeepEqual(resRef, resBat) {
		t.Fatalf("results differ:\n%s", diffResults(resRef, resBat))
	}
	vwRef, okRef := sRef.(violationWorder)
	vwBat, okBat := sBat.(violationWorder)
	if okRef && okBat && !reflect.DeepEqual(vwRef.ViolationWords(), vwBat.ViolationWords()) {
		t.Fatalf("violation words differ:\nreference: %v\nbatched:   %v",
			vwRef.ViolationWords(), vwBat.ViolationWords())
	}
}

// diffResults names what diverged, so an equivalence failure points at
// the field — and for period stats, the first differing period —
// instead of dumping two megabyte-scale structs.
func diffResults(a, b *device.Result) string {
	var out string
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			continue
		}
		switch name {
		case "Periods":
			if len(a.Periods) != len(b.Periods) {
				out += fmt.Sprintf("Periods: %d vs %d periods\n", len(a.Periods), len(b.Periods))
				continue
			}
			for p := range a.Periods {
				if !reflect.DeepEqual(a.Periods[p], b.Periods[p]) {
					out += fmt.Sprintf("Periods[%d]:\nreference: %+v\nbatched:   %+v\n",
						p, a.Periods[p], b.Periods[p])
					break
				}
			}
		default:
			out += fmt.Sprintf("%s:\nreference: %+v\nbatched:   %+v\n",
				name, av.Field(i).Interface(), bv.Field(i).Interface())
		}
	}
	if out == "" {
		out = "(structs compare unequal but no field diff found)"
	}
	return out
}

// equivFullMatrix reports whether the oracle should run its full
// workload × strategy × supply matrix. The slice is used in -short runs
// and under the race detector: race instrumentation slows the
// interpreter loop roughly 10×, which pushes the full matrix past any
// reasonable package timeout, so `make check` runs the matrix in its
// race-free `go test` pass and keeps the representative slice — every
// engine path, three strategies, two workloads, one trace, one fault
// seed — under -race.
func equivFullMatrix() bool { return !testing.Short() && !raceEnabled }

// equivSpecs returns the strategy slice for the current test mode.
func equivSpecs(t *testing.T) []strategy.Spec {
	if equivFullMatrix() {
		return strategy.Catalog()
	}
	var out []strategy.Spec
	for _, name := range []string{"clank", "hibernus", "timer"} {
		s, ok := strategy.Lookup(name)
		if !ok {
			t.Fatalf("strategy %q missing from catalog", name)
		}
		out = append(out, s)
	}
	return out
}

// equivWorkloads returns the workload slice for the current test mode.
func equivWorkloads(t *testing.T) []workload.Workload {
	if equivFullMatrix() {
		return workload.All()
	}
	var out []workload.Workload
	for _, name := range []string{"counter", "crc"} {
		w, ok := workload.Get(name)
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		out = append(out, w)
	}
	return out
}

// TestEngineEquivalenceBench is the bench-supply face of the oracle:
// fixed energy per period, instantly recharged.
func TestEngineEquivalenceBench(t *testing.T) {
	for _, c := range equivSpecs(t) {
		for _, w := range equivWorkloads(t) {
			c, w := c, w
			t.Run(c.Name+"/"+w.Name, func(t *testing.T) {
				t.Parallel()
				prog, err := w.Build(workload.Options{Seg: c.Seg})
				if err != nil {
					t.Fatal(err)
				}
				runEngines(t, func(eng device.Engine) (*device.Device, device.Strategy) {
					cfg := benchEquivCfg(prog, 20000)
					cfg.Engine = eng
					s := c.New()
					d, err := device.New(cfg, s)
					if err != nil {
						t.Fatal(err)
					}
					return d, s
				})
			})
		}
	}
}

// TestEngineEquivalenceWideWindow aims the oracle at the batched
// engine's large-batch regimes: timer windows far beyond
// maxBatchCycles (so batches run at the cap and PostStep firings land
// mid-stretch), windows aligned to the cap, and the infinite window
// (batches bounded by the energy horizon alone). Supplies that
// complete the workload in one period and supplies that brown out
// repeatedly both appear, so the per-step fallback window and
// mid-run death execute under both engines at every window size.
func TestEngineEquivalenceWideWindow(t *testing.T) {
	cases := []struct {
		name           string
		tauB           uint64
		cyclesOfEnergy float64
	}{
		{"wide-window/one-period", 50_000, 600_000},
		{"wide-window/brownouts", 20_000, 60_000},
		{"chunk-aligned", 8192, 100_000},
		{"infinite-window", 0, 600_000},
	}
	for _, c := range cases {
		for _, w := range equivWorkloads(t) {
			c, w := c, w
			t.Run(c.name+"/"+w.Name, func(t *testing.T) {
				t.Parallel()
				prog, err := w.Build(workload.Options{})
				if err != nil {
					t.Fatal(err)
				}
				runEngines(t, func(eng device.Engine) (*device.Device, device.Strategy) {
					cfg := benchEquivCfg(prog, c.cyclesOfEnergy)
					cfg.Engine = eng
					s := strategy.NewTimer(c.tauB, 0.1)
					d, err := device.New(cfg, s)
					if err != nil {
						t.Fatal(err)
					}
					return d, s
				})
			})
		}
	}
}

// TestEngineEquivalenceMemBound aims the oracle at the exactness of
// CyclesAboveEnergy: a straight run of loads draws the worst class's
// energy on every cycle, so a batch's final-instruction overrun is all
// that separates its budget from the energy left. Supplies of 1000 to
// 1007 ALU cycles put both parities of that budget on the brown-out
// and NVP-threshold horizons; without the overrun margin a batch would
// die inside its horizon.
func TestEngineEquivalenceMemBound(t *testing.T) {
	b := asm.New("loads")
	b.Word("x", 7)
	b.La(isa.R1, "x")
	for i := 0; i < 2000; i++ {
		b.Lw(isa.R4, isa.R1, 0)
	}
	b.Out(isa.R4)
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	for supply := 1000; supply < 1008; supply++ {
		for _, name := range []string{"timer-infinite", "nvp-threshold"} {
			supply, name := supply, name
			t.Run(fmt.Sprintf("%s/%d", name, supply), func(t *testing.T) {
				t.Parallel()
				runEngines(t, func(eng device.Engine) (*device.Device, device.Strategy) {
					cfg := benchEquivCfg(prog, float64(supply))
					cfg.Engine = eng
					cfg.MaxPeriods = 3
					var s device.Strategy = strategy.NewTimer(0, 0.1)
					if name == "nvp-threshold" {
						s = strategy.NewNVPThreshold()
					}
					d, err := device.New(cfg, s)
					if err != nil {
						t.Fatal(err)
					}
					return d, s
				})
			})
		}
	}
}

// TestEngineEquivalenceHarvested repeats the oracle with an RF-style
// harvester driving the supply, so batches meet charge phases, partial
// periods and harvest-while-executing accounting. Two constant sources
// aim at the clamp at the capacitor's rating, which the batch budget's
// clamp horizon must keep out of batches: at 3 V (2.1 mW at R = 3 kΩ,
// η = 0.7) the store sits at its rating while executing; at 2.2 V
// (1.13 mW) harvest lies between the ALU and memory draws, so the store
// hovers just below its rating.
func TestEngineEquivalenceHarvested(t *testing.T) {
	type source struct {
		name string
		src  energy.VoltageSource
	}
	var sources []source
	for _, kind := range trace.Kinds() {
		sources = append(sources, source{kind.String(), trace.Generate(kind, 20, 1e-3, 42)})
	}
	if !equivFullMatrix() {
		sources = sources[:1]
	}
	sources = append(sources,
		source{"constant-3V", trace.Constant(3, 20, 1e-3)},
		source{"constant-2.2V", trace.Constant(2.2, 20, 1e-3)})
	for _, c := range equivSpecs(t) {
		for _, src := range sources {
			c, src := c, src
			t.Run(c.Name+"/"+src.name, func(t *testing.T) {
				t.Parallel()
				w, ok := workload.Get("counter")
				if !ok {
					t.Fatal("counter workload missing")
				}
				prog, err := w.Build(workload.Options{Seg: c.Seg})
				if err != nil {
					t.Fatal(err)
				}
				runEngines(t, func(eng device.Engine) (*device.Device, device.Strategy) {
					h, err := energy.NewHarvester(src.src, 3000, 0.7)
					if err != nil {
						t.Fatal(err)
					}
					cfg := benchEquivCfg(prog, 6000)
					cfg.Engine = eng
					cfg.Harvester = h
					s := c.New()
					d, err := device.New(cfg, s)
					if err != nil {
						t.Fatal(err)
					}
					return d, s
				})
			})
		}
	}
}

// equivFaultPlan is the oracle's fault mix: scheduled and random power
// cuts, torn checkpoint writes, bit flips and stale restores.
func equivFaultPlan(seed int64) faults.Plan {
	return faults.Plan{
		Seed:                seed,
		RandomCutMeanCycles: 30_000,
		CutCycles:           []uint64{50_000, 123_456},
		TornWriteProb:       0.01,
		BitFlipRate:         1e-4,
		StaleRestoreProb:    0.05,
	}
}

// TestEngineEquivalenceFaulted repeats the oracle under fault
// injection: scheduled and random power cuts (which the batched engine
// must land on the exact per-step instruction), torn checkpoint
// writes, bit flips and stale restores.
func TestEngineEquivalenceFaulted(t *testing.T) {
	seeds := []int64{1}
	if equivFullMatrix() {
		seeds = []int64{1, 7, 23}
	}
	for _, c := range equivSpecs(t) {
		for _, w := range equivWorkloads(t) {
			for _, seed := range seeds {
				c, w, seed := c, w, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", c.Name, w.Name, seed), func(t *testing.T) {
					t.Parallel()
					prog, err := w.Build(workload.Options{Seg: c.Seg})
					if err != nil {
						t.Fatal(err)
					}
					runEngines(t, func(eng device.Engine) (*device.Device, device.Strategy) {
						inj, err := faults.New(equivFaultPlan(seed))
						if err != nil {
							t.Fatal(err)
						}
						cfg := benchEquivCfg(prog, 20000)
						cfg.Engine = eng
						cfg.Faults = inj
						s := c.New()
						d, err := device.New(cfg, s)
						if err != nil {
							t.Fatal(err)
						}
						return d, s
					})
				})
			}
		}
	}
}

// TestEnergyConservation checks the period ledger balances exactly, in
// integer attojoules, across the oracle's runtime × {bench, RF trace,
// fault mix} grid on both engines:
//
//	supply + harvested = progress + dead + backup + restore + idle + residual
//
// Device.Run enforces the identity itself (an imbalance fails the run
// with a *device.EngineError); this test recomputes it from the outside —
// the Result's energy split against the residual each period's closing
// event reports — so a check that stopped running would be caught too.
func TestEnergyConservation(t *testing.T) {
	w, ok := workload.Get("counter")
	if !ok {
		t.Fatal("counter workload missing")
	}
	supplies := []struct {
		name  string
		apply func(t *testing.T, cfg *device.Config)
	}{
		{"bench", func(*testing.T, *device.Config) {}},
		{"rf-spikes", func(t *testing.T, cfg *device.Config) {
			h, err := energy.NewHarvester(trace.Generate(trace.Spikes, 20, 1e-3, 42), 3000, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Harvester = h
		}},
		{"fault-mix", func(t *testing.T, cfg *device.Config) {
			inj, err := faults.New(equivFaultPlan(1))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = inj
		}},
	}
	for _, c := range equivSpecs(t) {
		for _, sup := range supplies {
			for _, eng := range []device.Engine{device.EngineReference, device.EngineBatched} {
				c, sup, eng := c, sup, eng
				t.Run(fmt.Sprintf("%s/%s/%v", c.Name, sup.name, eng), func(t *testing.T) {
					t.Parallel()
					prog, err := w.Build(workload.Options{Seg: c.Seg})
					if err != nil {
						t.Fatal(err)
					}
					cfg := benchEquivCfg(prog, 6000)
					cfg.Engine = eng
					sup.apply(t, &cfg)
					sink := &obsv.SliceSink{}
					cfg.Observe = sink
					d, err := device.New(cfg, c.New())
					if err != nil {
						t.Fatal(err)
					}
					res, err := d.Run()
					if eng := (*device.EngineError)(nil); errors.As(err, &eng) {
						t.Fatal(err)
					}
					if err != nil {
						return // a typed fail-stop (unrecoverable state) is a legitimate outcome
					}
					var residuals []float64
					for _, e := range sink.Events {
						if e.Type == obsv.EvBrownOut || e.Type == obsv.EvHalt {
							residuals = append(residuals, e.F)
						}
					}
					if len(residuals) != len(res.Periods) {
						t.Fatalf("%d period-closing events for %d periods", len(residuals), len(res.Periods))
					}
					for i, p := range res.Periods {
						in := energy.AJ(p.SupplyE) + energy.AJ(p.HarvestedE)
						out := energy.AJ(p.ProgressE) + energy.AJ(p.DeadE) + energy.AJ(p.BackupE) +
							energy.AJ(p.RestoreE) + energy.AJ(p.IdleE) + energy.AJ(residuals[i])
						if in != out {
							t.Fatalf("period %d: supply+harvested %d aJ != spent+residual %d aJ (off by %d): %+v",
								i, in, out, in-out, p)
						}
						if p.SupplyE <= 0 {
							t.Errorf("period %d has no supply", i)
						}
					}
				})
			}
		}
	}
}
