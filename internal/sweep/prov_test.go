package sweep

import (
	"context"
	"strconv"
	"testing"

	"ehmodel/internal/device"
	"ehmodel/internal/obsv"
	"ehmodel/internal/runner"
)

// tracedRun executes cells with a trace and a provenance log attached
// and returns both alongside the results.
func tracedRun(t *testing.T, e *Executor, cells []Cell, workers int) (*obsv.TraceData, *ProvLog) {
	t.Helper()
	tr := obsv.NewTrace(obsv.NewTraceID(), 0)
	pl := NewProvLog(0)
	ctx := WithProvLog(obsv.ContextWithTrace(context.Background(), tr), pl)
	_, errs := e.Run(ctx, cells, runner.Options{Workers: workers})
	if len(errs) != 0 {
		t.Fatal(errs[0])
	}
	return tr.Snapshot(), pl
}

// spansNamed returns the trace's spans with the given name.
func spansNamed(td *obsv.TraceData, name string) []*obsv.SpanNode {
	var out []*obsv.SpanNode
	var walk func(ns []*obsv.SpanNode)
	walk = func(ns []*obsv.SpanNode) {
		for _, n := range ns {
			if n.Name == name {
				out = append(out, n)
			}
			walk(n.Children)
		}
	}
	walk(td.Tree())
	return out
}

// TestExecutorCellSpans: a traced cold run records one "cell" span per
// cell with its outcome and a nested "device.run" span whose attributes
// agree with the same cell's Result and with the device's lifecycle
// events; the warm run's cells are hits with no device.run underneath.
func TestExecutorCellSpans(t *testing.T) {
	e := NewExecutor(NewMemStore(0))
	cells := []Cell{testCell(t, 1, 2000), testCell(t, 1, 3000)}
	// Each cold cell's device also feeds its own Metrics sink, so the
	// span counts are checked against the event stream too.
	metrics := make([]obsv.Metrics, len(cells))
	index := map[string]int{}
	for i := range cells {
		build, m := cells[i].Build, &metrics[i]
		cells[i].Build = func(ctx context.Context) (device.Config, device.Strategy, error) {
			cfg, s, err := build(ctx)
			cfg.Observe = m
			return cfg, s, err
		}
		index[cells[i].Label] = i
	}

	tr := obsv.NewTrace(obsv.NewTraceID(), 0)
	results, errs := e.Run(obsv.ContextWithTrace(context.Background(), tr), cells, runner.Options{Workers: 2})
	if len(errs) != 0 {
		t.Fatal(errs[0])
	}
	cellSpans := spansNamed(tr.Snapshot(), "cell")
	if len(cellSpans) != 2 {
		t.Fatalf("cold run recorded %d cell spans", len(cellSpans))
	}
	for _, sp := range cellSpans {
		if sp.Attrs["outcome"] != "miss" {
			t.Fatalf("cold cell outcome %q", sp.Attrs["outcome"])
		}
		i, ok := index[sp.Attrs["label"]]
		if !ok {
			t.Fatalf("cell span label %q", sp.Attrs["label"])
		}
		res, m := results[i].Result, &metrics[i]
		if sp.Attrs["completed"] != "true" || sp.Attrs["simcycles"] != strconv.FormatUint(res.TotalCycles, 10) {
			t.Fatalf("cold cell attrs %v", sp.Attrs)
		}
		var dev *obsv.SpanNode
		for _, c := range sp.Children {
			if c.Name == "device.run" {
				dev = c
			}
		}
		if dev == nil {
			t.Fatal("cell span has no device.run child")
		}
		var executed uint64
		for _, p := range res.Periods {
			executed += p.ProgressCycles + p.DeadCycles
		}
		if m.Periods != uint64(len(res.Periods)) || m.Backups != uint64(res.Backups()) ||
			m.BatchCycles+m.StepCycles != executed {
			t.Fatalf("%s: events (periods %d, backups %d, executed %d) disagree with the Result (%d, %d, %d)",
				sp.Attrs["label"], m.Periods, m.Backups, m.BatchCycles+m.StepCycles,
				len(res.Periods), res.Backups(), executed)
		}
		// The timer runtime batches, so some executed cycles ran in
		// batches.
		if m.BatchCycles == 0 {
			t.Fatalf("%s: no batched cycles", sp.Attrs["label"])
		}
		want := map[string]string{
			"periods":      strconv.Itoa(len(res.Periods)),
			"backups":      strconv.Itoa(res.Backups()),
			"brown_outs":   strconv.FormatUint(m.BrownOuts, 10),
			"simcycles":    strconv.FormatUint(res.TotalCycles, 10),
			"batch_cycles": strconv.FormatUint(m.BatchCycles, 10),
			"step_cycles":  strconv.FormatUint(m.StepCycles, 10),
			"completed":    strconv.FormatBool(res.Completed),
		}
		for k, v := range want {
			if dev.Attrs[k] != v {
				t.Errorf("%s: device.run %s = %q, want %q", sp.Attrs["label"], k, dev.Attrs[k], v)
			}
		}
	}

	warm, _ := tracedRun(t, e, cells, 2)
	for _, sp := range spansNamed(warm, "cell") {
		if sp.Attrs["outcome"] != "hit" {
			t.Fatalf("warm cell outcome %q", sp.Attrs["outcome"])
		}
	}
	if n := len(spansNamed(warm, "device.run")); n != 0 {
		t.Fatalf("warm run simulated: %d device.run spans", n)
	}
}

// TestExecutorProvenance: the provenance log mirrors the executor's
// outcome accounting, carries worker slots, and recovers the producing
// run's compute cost from the stored entry on hits.
func TestExecutorProvenance(t *testing.T) {
	e := NewExecutor(NewMemStore(0))
	cells := []Cell{testCell(t, 1, 2000), testCell(t, 1, 3000)}

	_, cold := tracedRun(t, e, cells, 2)
	recs := cold.Cells()
	if len(recs) != 2 {
		t.Fatalf("%d cold records", len(recs))
	}
	if cold.ComputedCells() != 2 {
		t.Fatalf("cold computed %d", cold.ComputedCells())
	}
	for _, p := range recs {
		if p.Outcome != "miss" || !p.Computed() {
			t.Fatalf("cold record %+v", p)
		}
		if p.Key == "" || p.Label == "" {
			t.Fatalf("record missing identity: %+v", p)
		}
		if p.Worker < 0 || p.Worker > 1 {
			t.Fatalf("worker slot %d", p.Worker)
		}
		if p.ComputeUS <= 0 || p.WallUS <= 0 || p.SimCycles == 0 || !p.Completed {
			t.Fatalf("cold record costs: %+v", p)
		}
	}

	_, warm := tracedRun(t, e, cells, 2)
	if warm.ComputedCells() != 0 {
		t.Fatalf("warm run computed %d cells", warm.ComputedCells())
	}
	for _, p := range warm.Cells() {
		if p.Outcome != "hit" {
			t.Fatalf("warm outcome %q", p.Outcome)
		}
		// The hit's ComputeUS is the cold run's cost, recovered from the
		// stored entry's provenance stub.
		if p.ComputeUS <= 0 {
			t.Fatalf("hit lost the stored compute cost: %+v", p)
		}
	}

	// Bypass: provenance still records, without a key.
	eb := NewExecutor(nil)
	_, bp := tracedRun(t, eb, []Cell{testCell(t, 1, 2000)}, 1)
	recs = bp.Cells()
	if len(recs) != 1 || recs[0].Outcome != "bypass" || recs[0].Key != "" || !recs[0].Computed() {
		t.Fatalf("bypass record %+v", recs)
	}
}

// TestStoredProvPersisted: the compute-cost stub rides inside the CAS
// entry, and entries stored before provenance existed decode to a hit
// with ComputeUS 0.
func TestStoredProvPersisted(t *testing.T) {
	store := NewMemStore(0)
	e := NewExecutor(store)
	c := testCell(t, 1, 2000)
	run1(t, e, []Cell{c}, 1)

	cfg, strat, err := c.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	k, ok := CellKey(cfg, strat)
	if !ok {
		t.Fatal("cell not keyable")
	}
	enc, ok := store.Get(k)
	if !ok {
		t.Fatal("entry not stored")
	}
	ent, err := decodeEntry(enc)
	if err != nil {
		t.Fatal(err)
	}
	if ent.Prov == nil || ent.Prov.ComputeUS <= 0 || ent.Prov.CreatedUnixMS <= 0 || ent.Prov.Label != c.Label {
		t.Fatalf("stored prov %+v", ent.Prov)
	}

	// A pre-provenance entry (no prov field) still decodes and hits.
	legacy, err := decodeEntry([]byte(`{"result":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Prov != nil {
		t.Fatal("legacy entry grew provenance")
	}
	if storedComputeUS(legacy) != 0 {
		t.Fatal("legacy compute cost not zero")
	}
}

// TestProvLogLimit: records past the limit are counted, not stored, and
// OnCell still fires for every record.
func TestProvLogLimit(t *testing.T) {
	l := NewProvLog(2)
	seen := 0
	l.OnCell = func(CellProv) { seen++ }
	for i := 0; i < 5; i++ {
		l.add(CellProv{Label: "x", Outcome: "miss"})
	}
	if len(l.Cells()) != 2 || l.Dropped() != 3 {
		t.Fatalf("cells %d dropped %d", len(l.Cells()), l.Dropped())
	}
	if seen != 5 {
		t.Fatalf("OnCell fired %d times", seen)
	}
}

// TestProvFromAbsent: with no log attached the lookup returns nil and
// the executor's disabled path stays inert.
func TestProvFromAbsent(t *testing.T) {
	if ProvFrom(context.Background()) != nil {
		t.Fatal("ProvFrom invented a log")
	}
	if got := WithProvLog(context.Background(), nil); got != context.Background() {
		t.Fatal("nil log rewrote the context")
	}
}
