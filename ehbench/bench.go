package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ehmodel/internal/experiments"
	"ehmodel/internal/obsv"
	"ehmodel/internal/runner"
	"ehmodel/internal/sweep"
)

// Phase budgets, as shares of --seconds. The measured run splits the
// catalog, steady and static budgets over its rounds; a cold catalog
// (≈11 s on one core) overruns its share and runs once a round.
const (
	catalogShare = 0.4
	fillShare    = 0.05
	steadyShare  = 0.2
	staticShare  = 0.15
)

// The service mix's open loop: the steady phase runs at steadyRate over
// two connections; the capacity ladder then climbs fixed rungs while
// the mix's p99 stays within latencyLimit and the backlog does not grow.
const (
	conns         = 2
	steadyRate    = 400.0
	minSteadyReqs = 2400 // ≥ 1000 samples of each class for a supported p99
	rungReqs      = 1000 // the fewest that support a p99
	latencyLimit  = 5 * time.Millisecond
)

var ladder = []float64{800, 1600, 3200}

type bench struct {
	root, work string
	workload   string
	seed       int64
	seconds    float64
	traced     bool

	attempted, failed int
	metrics           map[string]metric
}

// env is what set-up leaves for the measured phases.
type env struct {
	srv       *server
	srvBin    string
	srvArgs   []string
	cas       string // the filled store (warm only)
	fillDig   string // the fill catalog's digest (warm only)
	setupS    float64
	ehfigsBin string // traced runs only
}

func (b *bench) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("ehbench: undeclared metric " + name)
	}
	b.metrics[name] = metric{Value: v, Unit: u}
}

// op records n attempted operations of which failed failed.
func (b *bench) op(n, failed int) {
	b.attempted += n
	b.failed += failed
}

// check records one operation that failed if err is non-nil.
func (b *bench) check(what string, err error) {
	b.op(1, 0)
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "ehbench: %s: %v\n", what, err)
	}
}

// info prints a human-readable line ahead of the JSON result.
func (b *bench) info(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func (b *bench) budget(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

func (b *bench) run(ctx context.Context) error {
	// Set-up is repeated and its median reported, so one slow start
	// does not decide setup_s; the warm fill is a whole catalog and is
	// done once, and the traced run reports no setup_s.
	reps := 3
	if b.workload == "warm" || b.traced {
		reps = 1
	}
	var setups []float64
	var e *env
	for i := 0; i < reps; i++ {
		if e != nil {
			if err := e.srv.stop(); err != nil {
				return err
			}
		}
		var err error
		if e, err = b.setup(ctx, i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, e.setupS)
	}
	defer func() {
		if e.srv != nil {
			e.srv.stop() //nolint:errcheck // stopped explicitly on the success path
		}
	}()
	var err error
	if b.traced {
		err = b.runTraced(ctx, e)
	} else {
		b.set("setup_s", median(setups))
		err = b.runMeasured(ctx, e)
	}
	if err != nil {
		return err
	}
	err = e.srv.stop()
	e.srv = nil
	if err != nil {
		return fmt.Errorf("ehserve shutdown: %w", err)
	}
	return ctx.Err()
}

// setup builds the server (a no-op relink once the build cache is
// warm), fills the store on the warm workload, and starts ehserve.
func (b *bench) setup(ctx context.Context, rep int) (*env, error) {
	t0 := time.Now()
	bins := filepath.Join(filepath.Dir(b.work), "bin")
	if err := os.MkdirAll(bins, 0o755); err != nil {
		return nil, err
	}
	srvBin, err := buildServer(b.root, bins, b.traced)
	if err != nil {
		return nil, err
	}
	e := &env{}
	if b.traced {
		e.ehfigsBin = filepath.Join(bins, "ehfigs")
		if err := goBuild(b.root, "build", "-o", e.ehfigsBin, "ehmodel/cmd/ehfigs"); err != nil {
			return nil, err
		}
	}
	args := []string{"-cache", "mem"}
	if b.workload == "warm" {
		e.cas = filepath.Join(b.work, fmt.Sprintf("cas-fill-%d", rep))
		if err := b.fill(ctx, e); err != nil {
			return nil, err
		}
		args = []string{"-cache", "disk", "-cache-dir", e.cas}
	}
	// Request tracing stays off in measured runs; the traced run keeps
	// every request's span tree for /v1/trace/{id}.
	if b.traced {
		args = append(args, "-trace-store", "100000")
	} else {
		args = append(args, "-trace-store", "0")
	}
	e.srvBin, e.srvArgs = srvBin, args
	if err := b.startServer(e, fmt.Sprint(rep)); err != nil {
		return nil, err
	}
	e.setupS = time.Since(t0).Seconds()
	return e, nil
}

// startServer starts e's ehserve, logging to a file named by tag.
func (b *bench) startServer(e *env, tag string) error {
	srv, err := startServer(e.srvBin, filepath.Join(b.work, "ehserve-"+tag+".log"), e.srvArgs, b.traced)
	e.srv = srv
	return err
}

// restartServer replaces e's ehserve with a fresh process: empty
// response cache and, on the disk store, an empty memory tier.
func (b *bench) restartServer(e *env, tag string) error {
	err := e.srv.stop()
	e.srv = nil
	if err != nil {
		return fmt.Errorf("ehserve restart: %w", err)
	}
	return b.startServer(e, tag)
}

// fill generates the full catalog and the quick one (what the service
// serves) into the warm store, with a worker per CPU. In the traced
// run the full catalog is the run's simulation work, so it is traced:
// it supplies the device and store-write layers.
func (b *bench) fill(ctx context.Context, e *env) error {
	workers := runtime.NumCPU()
	if b.traced {
		exec, ts, err := openTimed(e.cas)
		if err != nil {
			return err
		}
		coll := obsv.NewCollector()
		uninstall := installCollector(coll)
		c := generateCatalog(ctx, exec, workers, perIDs(), true)
		uninstall()
		if err := catalogErr(c); err != nil {
			return fmt.Errorf("fill: %w", err)
		}
		b.deviceLayer(c.Fold, coll)
		b.storePuts(ts)
	} else {
		exec, err := sweep.OpenExecutor("disk", e.cas)
		if err != nil {
			return err
		}
		c := generateCatalog(ctx, exec, workers, allIDs, false)
		if err := catalogErr(c); err != nil {
			return fmt.Errorf("fill: %w", err)
		}
		e.fillDig = c.Digest
	}
	exec, err := sweep.OpenExecutor("disk", e.cas)
	if err != nil {
		return err
	}
	sweep.SetDefault(exec)
	if _, fails := experiments.GenerateFigures(ctx, "all", true, runner.Options{Workers: workers}); len(fails) > 0 {
		return fmt.Errorf("quick fill: %s: %v", fails[0].ID, fails[0].Err)
	}
	return nil
}

func catalogErr(c catalogRun) error {
	if len(c.Failures) > 0 {
		return fmt.Errorf("%d figures failed, first %s: %v", len(c.Failures), c.Failures[0].ID, c.Failures[0].Err)
	}
	return nil
}

// checkedCatalog generates the full catalog with one worker over the
// store in dir and checks it: no figure failed, the digest equals
// *digest (which the first catalog sets), and a warm catalog simulates
// nothing.
func (b *bench) checkedCatalog(ctx context.Context, dir string, digest *string) (catalogRun, error) {
	exec, err := sweep.OpenExecutor("disk", dir)
	if err != nil {
		return catalogRun{}, err
	}
	c := generateCatalog(ctx, exec, 1, allIDs, false)
	err = catalogErr(c)
	if err == nil && *digest != "" && c.Digest != *digest {
		err = fmt.Errorf("digest %s, want %s", c.Digest, *digest)
	}
	if err == nil && b.workload == "warm" && c.Stats.Hits != c.Stats.Total() {
		err = fmt.Errorf("warm catalog computed cells: %+v", c.Stats)
	}
	b.check("catalog", err)
	if *digest == "" {
		*digest = c.Digest
	}
	return c, nil
}

// fidelity reads Figs. 5–7 back from the filled store in dir,
// outside any timing; every cell must be a store hit.
func (b *bench) fidelity(ctx context.Context, dir string) (fidelity, error) {
	exec, err := sweep.OpenExecutor("disk", dir)
	if err != nil {
		return fidelity{}, err
	}
	fd, err := measureFidelity(ctx, exec)
	if err == nil && fd.Stats.Hits != fd.Stats.Total() {
		err = fmt.Errorf("fidelity read-back simulated cells: %+v", fd.Stats)
	}
	b.check("fidelity", err)
	b.info("fidelity: fig5 in bounds %.4f, fig6 error geomean %.6g, fig7 pearson %.6g", fd.Fig5InBounds, fd.Fig6ErrGeomean, fd.Fig7Pearson)
	return fd, nil
}

// staticRun is the static passes' fixed inputs: the units, the seeded
// order a pass visits them in, and the goldens every pass must match.
type staticRun struct {
	units  []staticUnit
	order  []int
	golden goldens
}

func (b *bench) newStaticRun() (staticRun, error) {
	units := staticUnits()
	g, err := loadGoldens(b.root)
	return staticRun{units, staticOrder(b.seed, len(units)), g}, err
}

// staticPasses runs checked passes for budget, at least three.
func (b *bench) staticPasses(st staticRun, budget time.Duration) []staticPass {
	deadline := time.Now().Add(budget)
	var passes []staticPass
	for len(passes) < 3 || time.Now().Before(deadline) {
		p, err := runStaticPass(st.units, st.order)
		if err == nil {
			if bad := st.golden.mismatch(p); len(bad) > 0 {
				err = fmt.Errorf("renders differ from %s", strings.Join(bad, ", "))
			}
		}
		b.check("static pass", err)
		passes = append(passes, p)
	}
	return passes
}
