package device_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"ehmodel/internal/device"
	"ehmodel/internal/obsv"
	"ehmodel/internal/strategy"
	"ehmodel/internal/workload"
)

// TestObservabilityDisabledCost is the zero-cost contract's enforcement
// (see observe.go): with no tracer attached, the observability layer
// must add nothing — no allocations anywhere in a run, and no measurable
// slowdown on the committed BENCH_core.json baseline.
//
// The allocation half always runs: allocs/op is deterministic, so any
// emission site that builds an Event on the disabled path fails the
// test on every machine. The engine-path counters (batched vs per-step
// cycles, TestEnginePathAttribution) are maintained on this disabled
// path too — the macro rows run both paths — and are emitted only when
// a tracer is attached, so the same rows pin them allocation-free. The ns/op half (≤2% over the committed
// baseline) only runs under EHSIM_BENCH_GUARD=1 — wall-clock baselines
// are machine-specific, so `make bench-guard` (and the CI job) opt in
// on the hardware the baseline was recorded on.
func TestObservabilityDisabledCost(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard; skipped in -short")
	}

	baseline := readBenchBaseline(t, "../../BENCH_core.json")

	checkNs := os.Getenv("EHSIM_BENCH_GUARD") == "1"
	if !checkNs {
		t.Log("EHSIM_BENCH_GUARD unset: checking allocs/op only (ns/op baselines are machine-specific)")
	}

	cases := []struct {
		name  string
		bench func(*testing.B)
	}{
		{"engine-macro/counter-bench/reference", BenchmarkEngineReference},
		{"engine-macro/counter-bench/batched", BenchmarkEngineBatched},
		{"micro/cpu-stepn-16k", benchmarkStepN},
	}
	for _, c := range cases {
		base, ok := baseline[c.name]
		if !ok {
			t.Fatalf("BENCH_core.json has no row %q", c.name)
		}
		r := testing.Benchmark(c.bench)
		if got := r.AllocsPerOp(); got > base.AllocsPerOp {
			t.Errorf("%s: allocs/op = %d, baseline %d — the disabled observability path must not allocate",
				c.name, got, base.AllocsPerOp)
		}
		if checkNs {
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if limit := base.NsPerOp * 1.02; ns > limit {
				t.Errorf("%s: %.0f ns/op exceeds baseline %.0f ns/op by more than 2%%",
					c.name, ns, base.NsPerOp)
			} else {
				t.Logf("%s: %.0f ns/op (baseline %.0f, +2%% limit %.0f)", c.name, ns, base.NsPerOp, limit)
			}
		}
	}
}

// readBenchBaseline loads the committed benchmark rows keyed by name.
func readBenchBaseline(t *testing.T, path string) map[string]benchRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading benchmark baseline: %v", err)
	}
	var doc struct {
		Benchmarks []benchRecord `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	out := make(map[string]benchRecord, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		out[b.Name] = b
	}
	return out
}

// TestSpanDisabledCost extends the zero-cost contract to the request
// tracing layer (obsv.StartSpan and friends): with no trace attached to
// the context, the entire span round trip — start, attributes, finish —
// must allocate nothing and return the context unchanged. The ns/op half
// of the contract is covered by the engine benchmarks above unchanged:
// span code never enters the engine's hot loops (it brackets whole
// simulation cells, one call per device.Run), so the committed
// BENCH_core.json baselines bound its drift too.
func TestSpanDisabledCost(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sctx, sp := obsv.StartSpan(ctx, "cell")
		if sctx != ctx {
			t.Fatal("disabled StartSpan rewrote the context")
		}
		sp.SetAttr("label", "x")
		sp.SetUint("simcycles", 1)
		sp.SetBool("completed", true)
		sp.Finish()
		obsv.TraceFrom(ctx)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f per op, want 0", allocs)
	}
}

// TestEnginePathAttribution checks the engine-path counters that answer
// "which engine path ran this cell": with a Metrics sink attached every
// executed cycle (progress plus dead) is attributed to exactly one of
// batches and the per-step protocol, and Device.EnginePath reports the
// same split. The reference engine, Horizon-1 runtimes (Clank here) and
// recorded runs run everything per step; the timer runtime under the
// batched engine runs mostly in batches.
func TestEnginePathAttribution(t *testing.T) {
	w, ok := workload.Get("counter")
	if !ok {
		t.Fatal("counter workload missing")
	}
	cases := []struct {
		name      string
		eng       device.Engine
		strat     string
		record    bool
		wantBatch bool
	}{
		{"timer/batched", device.EngineBatched, "timer", false, true},
		{"timer/reference", device.EngineReference, "timer", false, false},
		{"clank/batched", device.EngineBatched, "clank", false, false},
		{"timer/batched+record", device.EngineBatched, "timer", true, false},
	}
	for _, c := range cases {
		spec, ok := strategy.Lookup(c.strat)
		if !ok {
			t.Fatalf("strategy %q missing", c.strat)
		}
		prog, err := w.Build(workload.Options{Seg: spec.Seg})
		if err != nil {
			t.Fatal(err)
		}
		var m obsv.Metrics
		cfg := benchEquivCfg(prog, 20_000)
		cfg.Engine = c.eng
		cfg.Observe = &m
		if c.record {
			cfg.Record = &device.ObsLog{}
		}
		d, err := device.New(cfg, spec.New())
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		var executed uint64
		for _, p := range res.Periods {
			executed += p.ProgressCycles + p.DeadCycles
		}
		if got := m.BatchCycles + m.StepCycles; got != executed {
			t.Errorf("%s: batch %d + step %d = %d cycles, executed %d", c.name, m.BatchCycles, m.StepCycles, got, executed)
		}
		if (m.BatchCycles > 0) != c.wantBatch {
			t.Errorf("%s: batch cycles %d, want batched=%v", c.name, m.BatchCycles, c.wantBatch)
		}
		if b, st := d.EnginePath(); b != m.BatchCycles || st != m.StepCycles {
			t.Errorf("%s: EnginePath = (%d, %d), events say (%d, %d)", c.name, b, st, m.BatchCycles, m.StepCycles)
		}
	}
}
