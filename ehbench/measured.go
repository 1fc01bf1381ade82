package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"ehmodel/internal/experiments"
)

// rounds is how many times a measured run cycles through catalog,
// steady mix and static passes. Each end-to-end metric is the median of
// its per-round values, so a burst of contention on a shared host
// spoils one round rather than the run.
const rounds = 3

// runMeasured measures the end-to-end metrics with all tracing off.
func (b *bench) runMeasured(ctx context.Context, e *env) error {
	// Peak memory covers the measured phases; set-up (the warm fill, a
	// whole catalog on every CPU) has setup_s. Writing 5 to clear_refs
	// resets this process's VmHWM.
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	clients := newClients(conns)
	defer closeClients(clients)
	ids := experiments.FigureIDs()
	n := max(minSteadyReqs, int(steadyRate*b.budget(steadyShare).Seconds()))
	reqs := mixSchedule(b.seed, n-n%rounds, steadyRate, ids)
	st, err := b.newStaticRun()
	if err != nil {
		return err
	}

	// Fill: a server fills once, so every fill after the first
	// restarts it, and every server must serve the same bytes. A cold
	// fill simulates (≈1.2 s), a warm one reads the store (≈70 ms);
	// both repeat for the fill budget, at least three times. The fills
	// all come before the first steady phase: on a shared 2-vCPU
	// virtual machine, fills that followed an open-loop phase ran 50 %
	// slower for several seconds, which would tie fill_s to the mix.
	var fills []float64
	var bodies map[string][]byte
	deadline := time.Now().Add(b.budget(fillShare))
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		if i > 0 {
			if err := b.restartServer(e, fmt.Sprint("fill-", i)); err != nil {
				return err
			}
			closeClients(clients)
		}
		f := runFill(ctx, clients, e.srv.base, false)
		b.op(f.Total, f.Failed)
		if bodies != nil && !reflect.DeepEqual(f.Bodies, bodies) {
			b.check("fill after restart", errors.New("figure bodies differ from the first server's"))
		}
		bodies = f.Bodies
		fills = append(fills, f.Wall.Seconds())
	}
	b.info("fill: %d fills, median %.4fs", len(fills), median(fills))
	same := sameAs(bodies)

	var catS, cpuS, rates, hitMs, queryMs, lintS []float64
	var last catalogRun
	var steady stepResult // every round's steady requests, for the tail and the ladder
	steadyFailed := 0
	digest, cas := e.fillDig, e.cas
	for r := 0; r < rounds; r++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// Catalog: one cold catalog over a fresh store, or warm
		// catalogs over the filled one for the round's budget. Every
		// timed block starts from a collected heap holding only what
		// the run keeps, so the collector's pace is the same in every
		// round.
		runtime.GC()
		var walls, cpus, rate []float64
		deadline := time.Now().Add(b.budget(catalogShare) / rounds)
		for i := 0; i == 0 || time.Now().Before(deadline); i++ {
			if b.workload == "cold" {
				if cas != "" {
					os.RemoveAll(cas)
				}
				cas = filepath.Join(b.work, fmt.Sprintf("cas-%d-%d", r, i))
			}
			c, err := b.checkedCatalog(ctx, cas, &digest)
			if err != nil {
				return err
			}
			last = c
			walls = append(walls, c.Wall.Seconds())
			cpus = append(cpus, c.CPU.Seconds())
			rate = append(rate, float64(c.SimCycles)/c.Wall.Seconds()/1e6)
		}
		catS, cpuS, rates = append(catS, median(walls)), append(cpuS, median(cpus)), append(rates, median(rate))

		// Steady: this round's share of the seeded schedule.
		runtime.GC()
		chunk := reqs[r*len(reqs)/rounds : (r+1)*len(reqs)/rounds]
		res := runOpenLoop(ctx, clients, e.srv.base, chunk, same, 0)
		failed := stepFailures(chunk, res)
		b.op(len(chunk), failed)
		for i := range res.Out {
			res.Out[i].Body = nil // checked; keeping them would grow the heap round by round
		}
		steadyFailed += failed
		hits, queries := latencies(chunk, res)
		hitMs, queryMs = append(hitMs, median(hits)), append(queryMs, median(queries))
		steady.Out = append(steady.Out, res.Out...)
		steady.Wall += res.Wall
		steady.BacklogMax = max(steady.BacklogMax, res.BacklogMax)

		runtime.GC()
		var lint []float64
		for _, p := range b.staticPasses(st, b.budget(staticShare)/rounds) {
			lint = append(lint, p.Wall.Seconds())
		}
		lintS = append(lintS, median(lint))
		b.info("round %d: catalog %.4fs (%d), cpu %.4fs, hit p50 %.4fms, query p50 %.4fms, static %.4fs (%d)",
			r, catS[r], len(walls), cpuS[r], hitMs[r], queryMs[r], lintS[r], len(lint))
	}

	b.info("catalog digest %s (%d cells, %d simulated cycles)", last.Digest, last.Stats.Total(), last.SimCycles)
	fd, err := b.fidelity(ctx, cas)
	if err != nil {
		return err
	}
	hits, queries := latencies(reqs, steady)
	ht, qt := summarize(hits), summarize(queries)
	var lates []float64
	for _, o := range steady.Out {
		lates = append(lates, float64(o.Late)/1e6)
	}
	b.info("steady at %.0f req/s: %d requests; hits n=%d p%g %.4fms; queries n=%d p%g %.4fms; generator late p50 %.4fms, backlog max %d",
		steadyRate, len(reqs), ht.N, ht.Level, ht.Value, qt.N, qt.Level, qt.Value, median(lates), steady.BacklogMax)
	b.capacity(ctx, clients, e, same, ids, steady, steadyFailed)

	b.set("catalog_s", median(catS))
	b.set("cpu_s", median(cpuS))
	b.set("sim_mcyc_per_s", median(rates))
	b.set("fig5_in_bounds_frac", fd.Fig5InBounds)
	b.set("fig6_err_geomean", fd.Fig6ErrGeomean)
	b.set("fig7_pearson", fd.Fig7Pearson)
	b.set("fill_s", median(fills))
	b.set("hit_p50_ms", median(hitMs))
	b.set("query_p50_ms", median(queryMs))
	b.set("lint_s", median(lintS))
	self, srv := vmHWM("/proc/self/status"), e.srv.peakRSSMB()
	b.info("peak rss: benchmark %.1f MB, ehserve %.1f MB", self, srv)
	b.set("peak_rss_mb", self+srv)
	b.set("ok_frac", float64(b.attempted-b.failed)/float64(b.attempted))
	return nil
}

// capacity climbs the ladder from the steady step and prints the
// achieved rate of the highest step whose mix p99 stays within
// latencyLimit with no failed request and no growing backlog.
func (b *bench) capacity(ctx context.Context, clients []*http.Client, e *env, same hitCheck, ids []string, steady stepResult, steadyFailed int) {
	judge := func(res stepResult, failed int) (float64, bool) {
		var all []float64
		for _, o := range res.Out {
			all = append(all, float64(o.Lat)/1e6)
		}
		p99 := percentile(all, 99)
		return p99, failed == 0 && summarize(all).supports(99) && p99 <= float64(latencyLimit)/1e6 && !backlogGrew(res.Out, latencyLimit)
	}
	best := 0.0
	if _, ok := judge(steady, steadyFailed); ok {
		best = float64(len(steady.Out)) / steady.Wall.Seconds()
		for i, rate := range ladder {
			reqs := mixSchedule(b.seed*100+int64(i)+1, rungReqs, rate, ids)
			res := runOpenLoop(ctx, clients, e.srv.base, reqs, same, 0)
			failed := stepFailures(reqs, res)
			b.op(len(reqs), failed)
			p99, ok := judge(res, failed)
			achieved := float64(len(reqs)) / res.Wall.Seconds()
			b.info("rung %.0f req/s: achieved %.1f, p99 %.4fms, backlog max %d, within limit %v", rate, achieved, p99, res.BacklogMax, ok)
			if !ok {
				break
			}
			best = achieved
		}
	}
	b.info("max_rps %.1f req/s (0: the steady step already misses the %v p99 limit)", best, latencyLimit)
}
