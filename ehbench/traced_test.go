package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"ehmodel/internal/obsv"
	"ehmodel/internal/sweep"
)

// catalogTestIDs are cheap simulated catalog entries: figures 6 and 7 share
// cells, so they exercise store hits within one catalog.
var catalogTestIDs = []string{"6", "7", "storemajor-device"}

// The traced run's instruments — the store timing wrapper, the device
// observer and the span trace — must not change a single result.
func TestInstrumentsAreResultNeutral(t *testing.T) {
	ctx := context.Background()
	defer sweep.SetDefault(nil)
	plain := generateCatalog(ctx, sweep.NewExecutor(sweep.NewMemStore(0)), 2, catalogTestIDs, false)
	if err := catalogErr(plain); err != nil {
		t.Fatal(err)
	}

	exec, ts, err := openTimed(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coll := obsv.NewCollector()
	uninstall := installCollector(coll)
	traced := generateCatalog(ctx, exec, 2, catalogTestIDs, true)
	uninstall()
	if err := catalogErr(traced); err != nil {
		t.Fatal(err)
	}

	if traced.Digest != plain.Digest || traced.SimCycles != plain.SimCycles {
		t.Fatalf("instrumented digest %s (%d cycles), plain %s (%d cycles)", traced.Digest, traced.SimCycles, plain.Digest, plain.SimCycles)
	}
	// The instruments did observe the work.
	if ts.putN.Load() == 0 || ts.getN.Load() == 0 {
		t.Errorf("store wrapper saw %d gets, %d puts", ts.getN.Load(), ts.putN.Load())
	}
	if m := coll.Aggregate(); m.Runs == 0 || m.Periods == 0 {
		t.Errorf("collector saw %d runs, %d periods", m.Runs, m.Periods)
	}
	// Every cell span carries its cycles; only simulated cells have a
	// device.run child.
	f := traced.Fold
	var cellCycles uint64
	for _, c := range f.FigureSimCycles {
		cellCycles += c
	}
	if cellCycles != plain.SimCycles || f.SimCycles == 0 || f.SimCycles > cellCycles || f.DeviceRunS <= 0 || f.CellS < f.DeviceRunS {
		t.Errorf("span fold: cells %d cycles (want %d), device.run %d cycles in %gs, cells %gs", cellCycles, plain.SimCycles, f.SimCycles, f.DeviceRunS, f.CellS)
	}
	if len(f.FigureS) != len(catalogTestIDs) {
		t.Errorf("figure spans %v, want one per ID", f.FigureS)
	}

	// A warm re-read through a fresh wrapped executor agrees as well.
	warm, _, err := openTimed(ts.inner.(*sweep.Tiered).Disk.Dir())
	if err != nil {
		t.Fatal(err)
	}
	w := generateCatalog(ctx, warm, 2, catalogTestIDs, false)
	if w.Digest != plain.Digest {
		t.Fatalf("warm digest %s, cold %s", w.Digest, plain.Digest)
	}
	if w.Stats.Hits != w.Stats.Total() {
		t.Errorf("warm re-read computed cells: %+v", w.Stats)
	}
}

// The metric tables the benchmark prints match BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEndDefs, doc.EndToEnd}, {"per_layer", perLayerDefs, doc.PerLayer}} {
		if len(c.defs) != len(c.json) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", c.name, len(c.defs), len(c.json))
		}
		for i, d := range c.defs {
			if d.name != c.json[i].Name || d.unit != c.json[i].Unit {
				t.Errorf("%s[%d]: code %s %s, BENCHMARK.json %s %s", c.name, i, d.name, d.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
}

func TestFuncPkgAndLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"ehmodel/internal/device.(*Device).fusedBatch":     "device",
		"ehmodel/internal/cpu.(*CPU).StepN":                "cpu",
		"encoding/json.(*decodeState).object":              "json",
		"crypto/internal/fips140/sha256.blockAVX2":         "sha256",
		"net/http.(*conn).serve":                           "nethttp",
		"runtime.mallocgc":                                 "",
		"main.main":                                        "",
		"ehmodel/internal/analyze.WCEC.func1":              "analyze",
		"ehmodel/internal/sweep.(*Executor).runCell.func1": "sweep",
		"ehmodel/internal/runner.MapCtx[go.shape.struct { Result *ehmodel/internal/device.Result }].func1": "runner",
	} {
		if got := layerOf(funcPkg(fn)); got != want {
			t.Errorf("%s: layer %q, want %q", fn, got, want)
		}
	}
}

// A profile taken with runtime/pprof decodes, and samples land in the
// layer of their innermost frame.
func TestLayerSharesDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		runStaticPass(staticUnits()[:2], []int{0, 1}) //nolint:errcheck // load only
	}
	pprof.StopCPUProfile()
	shares, n, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no samples")
	}
	if shares["analyze"] == 0 {
		t.Errorf("no analyze samples in %d: %v", n, shares)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total > 1+1e-9 {
		t.Errorf("shares sum to %g", total)
	}
}
