package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"ehmodel/internal/experiments"
	"ehmodel/internal/obsv"
	"ehmodel/internal/runner"
	"ehmodel/internal/sweep"
)

// catalogRun is one generation of the full (non-quick) figure catalog.
type catalogRun struct {
	Wall, CPU time.Duration
	Digest    string
	SimCycles uint64 // simulated cycles of every cell the catalog resolved
	Stats     sweep.Stats
	Failures  []experiments.Failure
	Fold      spanFold // the span tree, folded; zero unless traced
}

// The catalog as one GenerateFigures("all") call — what the
// end-to-end metrics time — or one ID at a time, for per-figure
// attribution. Figures 8 and 9 share a generator, which the "8"
// request runs whole, so the per-ID list skips "9" and does the same
// simulation work as "all".
var allIDs = []string{"all"}

func perIDs() []string {
	var ids []string
	for _, id := range experiments.FigureIDs() {
		if id != "9" {
			ids = append(ids, id)
		}
	}
	return ids
}

// generateCatalog generates ids through exec. The provenance log only
// records each cell's outcome and simulated cycles for the digest; it
// does not change what runs. Traced, each ID runs in a "figure" span
// over the executor's cell and device.run spans, and the tree is
// folded into the result.
func generateCatalog(ctx context.Context, exec *sweep.Executor, workers int, ids []string, traced bool) catalogRun {
	sweep.SetDefault(exec)
	var tr *obsv.Trace
	if traced {
		tr = obsv.NewTrace(obsv.NewTraceID(), 0)
		ctx = obsv.ContextWithTrace(ctx, tr)
	}
	pl := sweep.NewProvLog(0)
	ctx = sweep.WithProvLog(ctx, pl)
	var figs []*experiments.Figure
	var fails []experiments.Failure
	cpu0, t0 := cpuTime(), time.Now()
	for _, id := range ids {
		fctx, sp := obsv.StartSpan(ctx, "figure")
		sp.SetAttr("id", id)
		fs, fl := experiments.GenerateFigures(fctx, id, false, runner.Options{Workers: workers})
		sp.Finish()
		figs, fails = append(figs, fs...), append(fails, fl...)
	}
	c := catalogRun{Wall: time.Since(t0), CPU: cpuTime() - cpu0, Stats: exec.Stats(), Failures: fails}
	c.Digest, c.SimCycles = catalogDigest(figs, pl.Cells())
	if tr != nil {
		td := tr.Snapshot()
		c.Fold = foldSpans(td.Tree(), workers, c.Wall)
		if td.Dropped > 0 {
			c.Failures = append(c.Failures, experiments.Failure{ID: "trace", Err: fmt.Errorf("%d spans dropped", td.Dropped)})
		}
	}
	return c
}

// catalogDigest hashes every figure's rendered data and notes, plus the
// simulated cycles of every cell, as a multiset so it is independent of
// the worker count. It repeats exactly across passes and cache
// temperatures; a change of simulator or model semantics moves it.
func catalogDigest(figs []*experiments.Figure, cells []sweep.CellProv) (string, uint64) {
	h := sha256.New()
	for _, f := range figs {
		fmt.Fprintf(h, "figure %s\n", f.ID)
		f.WriteCSV(h) //nolint:errcheck // hash writes cannot fail
		for _, n := range f.Notes {
			fmt.Fprintf(h, "note %s\n", n)
		}
	}
	recs := make([]string, len(cells))
	var total uint64
	for i, c := range cells {
		recs[i] = fmt.Sprintf("cell %s %d\n", c.Label, c.SimCycles)
		total += c.SimCycles
	}
	sort.Strings(recs)
	for _, r := range recs {
		h.Write([]byte(r))
	}
	return hex.EncodeToString(h.Sum(nil)), total
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fidelity is the paper's model-vs-simulator validation (§V), read back
// from a filled store.
type fidelity struct {
	Fig5InBounds, Fig6ErrGeomean, Fig7Pearson float64
	Stats                                     sweep.Stats
}

func measureFidelity(ctx context.Context, exec *sweep.Executor) (fidelity, error) {
	sweep.SetDefault(exec)
	run := runner.Options{Workers: 1}
	var fd fidelity
	_, p5, err := experiments.Fig5(ctx, experiments.Fig5Config{Run: run})
	if err != nil {
		return fd, fmt.Errorf("fig5: %w", err)
	}
	_, p6, err := experiments.Fig6(ctx, experiments.Fig6Config{Run: run})
	if err != nil {
		return fd, fmt.Errorf("fig6: %w", err)
	}
	_, p7, err := experiments.Fig7(ctx, experiments.Fig6Config{Run: run})
	if err != nil {
		return fd, fmt.Errorf("fig7: %w", err)
	}
	in := 0
	for _, p := range p5 {
		if p.Within {
			in++
		}
	}
	errs := make([]float64, len(p6))
	for i, p := range p6 {
		errs[i] = math.Abs(p.RelErr)
	}
	var sim, prog []float64
	for _, p := range p7 {
		sim, prog = append(sim, p.Similarity), append(prog, p.Measured)
	}
	fd.Fig5InBounds = float64(in) / float64(len(p5))
	fd.Fig6ErrGeomean = geomean(errs)
	fd.Fig7Pearson = pearson(sim, prog)
	fd.Stats = exec.Stats()
	if fd.Fig5InBounds == 0 || fd.Fig6ErrGeomean == 0 || fd.Fig7Pearson == 0 {
		return fd, fmt.Errorf("degenerate fidelity %+v", fd)
	}
	return fd, nil
}

// csvDrift renders the catalog CSVs with the built ehfigs over a filled
// store and counts those that differ from the committed results/.
func csvDrift(root, ehfigs, cas, dir string) (drift, total int, err error) {
	cmd := exec.Command(ehfigs, "-fig", "all", "-csv", dir, "-cache", "disk", "-cache-dir", cas)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return 0, 0, fmt.Errorf("ehfigs -csv: %v\n%s", err, out.String())
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return 0, 0, err
	}
	for _, f := range files {
		got, err := os.ReadFile(f)
		if err != nil {
			return 0, 0, err
		}
		want, err := os.ReadFile(filepath.Join(root, "results", filepath.Base(f)))
		if err != nil || !bytes.Equal(got, want) {
			drift++
		}
	}
	return drift, len(files), nil
}
