package device_test

import (
	"reflect"
	"testing"

	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/faults"
	"ehmodel/internal/strategy"
	"ehmodel/internal/workload"
)

// obslog_test.go — the observation recorder's neutrality contract:
// attaching Config.Record must not change a run's Result in any field,
// on either engine, with or without fault injection. The recorder
// keeps per-instruction batch records and widens the batch-stop mask, both
// covered by the engine-equivalence oracle, so any divergence here is a
// recorder bug.

func obslogCfg(t *testing.T, stratName, wlName string, eng device.Engine, inject bool) (device.Config, device.Strategy, []uint32) {
	t.Helper()
	spec, ok := strategy.Lookup(stratName)
	if !ok {
		t.Fatalf("strategy %s missing", stratName)
	}
	w, ok := workload.Get(wlName)
	if !ok {
		t.Fatalf("workload %s missing", wlName)
	}
	opts := workload.Options{Seg: spec.Seg}
	prog, err := w.Build(opts)
	if err != nil {
		t.Fatalf("build %s: %v", wlName, err)
	}
	pm := energy.MSP430Power()
	e := 20000 * pm.EnergyPerCycle(energy.ClassALU)
	capC, vmax, von, voff := device.FixedSupplyConfig(e)
	cfg := device.Config{
		Prog: prog, Power: pm,
		CapC: capC, CapVMax: vmax, VOn: von, VOff: voff,
		MaxPeriods: 20000, MaxCycles: 2_000_000_000,
		Engine: eng,
	}
	if inject {
		inj, err := faults.New(faults.Plan{
			Seed:                5,
			RandomCutMeanCycles: 7000,
			TornWriteProb:       0.001,
			StaleRestoreProb:    0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
	}
	return cfg, spec.New(), w.Ref(opts)
}

func TestObsLogResultNeutral(t *testing.T) {
	engines := []device.Engine{device.EngineReference, device.EngineBatched}
	for _, stratName := range []string{"timer", "chain", "clank"} {
		for _, wlName := range []string{"sense", "counter"} {
			for _, eng := range engines {
				for _, inject := range []bool{false, true} {
					// An honest fail-stop (e.g. Clank detecting
					// unrecoverable FRAM under injection) is a valid
					// outcome; it too must be recorder-invariant.
					run := func(rec *device.ObsLog) (*device.Result, error) {
						cfg, strat, _ := obslogCfg(t, stratName, wlName, eng, inject)
						cfg.Record = rec
						d, err := device.New(cfg, strat)
						if err != nil {
							t.Fatalf("%s/%s: %v", stratName, wlName, err)
						}
						return d.Run()
					}
					bare, bareErr := run(nil)
					log := &device.ObsLog{}
					recorded, recErr := run(log)
					if (bareErr == nil) != (recErr == nil) ||
						(bareErr != nil && bareErr.Error() != recErr.Error()) {
						t.Fatalf("%s/%s engine=%v inject=%v: recorder changed the error:\nbare: %v\nrec:  %v",
							stratName, wlName, eng, inject, bareErr, recErr)
					}
					if !reflect.DeepEqual(bare, recorded) {
						t.Fatalf("%s/%s engine=%v inject=%v: recorder changed the Result",
							stratName, wlName, eng, inject)
					}
					if bareErr != nil {
						continue
					}
					if len(log.Boots) == 0 || len(log.Commits) == 0 {
						t.Fatalf("%s/%s: empty observation log (boots=%d commits=%d)",
							stratName, wlName, len(log.Boots), len(log.Commits))
					}
					if wlName == "sense" && len(log.Senses) == 0 {
						t.Fatalf("%s/sense: no sense observations recorded", stratName)
					}
				}
			}
		}
	}
}

// TestObsLogStructure pins the recorder's core invariants on a clean
// sense run: the boot lineage starts cold, sense indices are the
// architectural sequence, every committed sense points at a commit that
// lists it, and committed output grows append-only.
func TestObsLogStructure(t *testing.T) {
	cfg, strat, want := obslogCfg(t, "timer", "sense", device.EngineBatched, false)
	log := &device.ObsLog{}
	cfg.Record = log
	d, err := device.New(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !reflect.DeepEqual(res.Output, want) {
		t.Fatalf("clean run broken: completed=%v output=%v", res.Completed, res.Output)
	}
	if log.Truncated {
		t.Fatal("clean run truncated the log")
	}
	if !log.Boots[0].Cold || log.Boots[0].Boot != 0 {
		t.Fatalf("first boot not a cold start: %+v", log.Boots[0])
	}
	for i, s := range log.Senses {
		if s.Index != uint32(i) {
			t.Fatalf("sense %d has index %d; clean run must observe the input sequence in order", i, s.Index)
		}
		if s.Committed {
			co := log.Commits[s.Commit]
			found := false
			for _, si := range co.Senses {
				found = found || si == i
			}
			if !found {
				t.Fatalf("sense %d claims commit %d, which does not list it", i, s.Commit)
			}
		}
	}
	base := 0
	var out []uint32
	for i, co := range log.Commits {
		if co.OutBase != base {
			t.Fatalf("commit %d OutBase = %d, want append-only %d", i, co.OutBase, base)
		}
		out = append(out, co.Out...)
		base = len(out)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("committed output stream %v does not reassemble the result %v", out, want)
	}
}
