package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ehmodel/internal/experiments"
	"ehmodel/internal/obsv"
	"ehmodel/internal/sweep"
)

// runTraced does a run's work with the instruments on and reports the
// per-layer metrics (README.md says which end-to-end metric each
// should move).
func (b *bench) runTraced(ctx context.Context, e *env) error {
	cas, err := b.catalogTraced(ctx, e)
	if err != nil {
		return err
	}
	if _, err := b.fidelity(ctx, cas); err != nil {
		return err
	}
	drift, total, err := csvDrift(b.root, e.ehfigsBin, cas, filepath.Join(b.work, "csv"))
	b.check("ehfigs -csv", err)
	b.set("experiments.csv_drift_figs", float64(drift))
	b.info("csv drift: %d of %d catalog CSVs differ from results/", drift, total)
	if err := b.serveTraced(ctx, e); err != nil {
		return err
	}
	return b.staticTraced()
}

// catalogTraced runs the catalog figure by figure, first untraced and
// then traced, and reports the traced passes' layers and the tracing
// overhead. Cold runs one pass of each; warm loops both.
func (b *bench) catalogTraced(ctx context.Context, e *env) (string, error) {
	half := time.Now().Add(b.budget(catalogShare) / 2)
	cas := e.cas
	open := func(i int) string {
		if b.workload == "cold" {
			cas = filepath.Join(b.work, fmt.Sprintf("cas-%d", i))
		}
		return cas
	}
	var base []float64
	var digest string
	runtime.GC() // both blocks start from a collected heap
	for i := 0; i == 0 || (b.workload == "warm" && time.Now().Before(half)); i++ {
		exec, err := sweep.OpenExecutor("disk", open(i))
		if err != nil {
			return "", err
		}
		c := generateCatalog(ctx, exec, 1, perIDs(), false)
		b.check("catalog", catalogErr(c))
		base = append(base, c.Wall.Seconds())
		digest = c.Digest
	}

	var traced []catalogRun
	var stores []*timedStore
	runtime.GC()
	coll := obsv.NewCollector()
	uninstall := installCollector(coll)
	deadline := time.Now().Add(b.budget(catalogShare) / 2)
	shares, samples, err := profiled(func() error {
		for i := 0; i == 0 || (b.workload == "warm" && time.Now().Before(deadline)); i++ {
			exec, ts, err := openTimed(open(1000 + i))
			if err != nil {
				return err
			}
			c := generateCatalog(ctx, exec, 1, perIDs(), true)
			err = catalogErr(c)
			if err == nil && c.Digest != digest {
				err = fmt.Errorf("traced digest %s differs from untraced %s", c.Digest, digest)
			}
			b.check("traced catalog", err)
			traced, stores = append(traced, c), append(stores, ts)
		}
		return nil
	})
	uninstall()
	if err != nil {
		return "", err
	}
	b.info("catalog profile: %d samples, shares %s", samples, fmtShares(shares))
	for _, l := range []string{"device", "cpu", "energy", "trace", "asm", "json", "sha256"} {
		b.set(l+".cpu_share", shares[l])
	}

	var walls, self, busy, gets, getS, getB []float64
	figS := map[string][]float64{}
	for i, c := range traced {
		walls = append(walls, c.Wall.Seconds())
		self = append(self, c.Fold.CellSelfS)
		busy = append(busy, c.Fold.BusyFrac)
		gets = append(gets, float64(stores[i].getN.Load()))
		getS = append(getS, time.Duration(stores[i].getNS.Load()).Seconds())
		getB = append(getB, float64(stores[i].getBytes.Load()))
		for id, s := range c.Fold.FigureS {
			figS[id] = append(figS[id], s)
		}
	}
	b.set("obsv.trace_overhead_frac", median(walls)/median(base)-1)
	b.set("sweep.cell_self_s", median(self))
	b.set("runner.busy_frac", median(busy))
	b.set("sweep.store.get_n", median(gets))
	b.set("sweep.store.get_s", median(getS))
	b.set("sweep.store.get_bytes", median(getB))
	st := traced[0].Stats
	b.set("sweep.cells", float64(st.Total()))
	b.set("sweep.hits", float64(st.Hits))
	b.set("sweep.misses", float64(st.Misses))
	b.set("sweep.dedup", float64(st.Dedup))
	b.set("sweep.bypass", float64(st.Bypass))
	b.set("sweep.hit_ratio", float64(st.Hits)/float64(st.Total()))
	// The figures that dominate cold wall time get their own row; the
	// rest are summed.
	named := map[string]string{"5": "fig5", "hibernus-margin": "hibernus-margin", "circular": "circular", "tail": "tail"}
	rest := 0.0
	for id, ss := range figS {
		if n, ok := named[id]; ok {
			b.set("experiments."+n+"_s", median(ss))
		} else {
			rest += median(ss)
		}
	}
	b.set("experiments.rest_s", rest)
	b.info("catalog traced: %d passes, per figure %s", len(traced), fmtFigures(traced[0].Fold))
	if b.workload == "cold" {
		b.deviceLayer(traced[0].Fold, coll)
		b.storePuts(stores[0])
	}
	return cas, nil
}

// deviceLayer reports the engine's work from a catalog that simulated.
func (b *bench) deviceLayer(f spanFold, coll *obsv.Collector) {
	m := coll.Aggregate()
	b.set("device.run_s", f.DeviceRunS)
	b.set("device.simcycles", float64(f.SimCycles))
	b.set("device.mcyc_per_s.fig5", float64(f.Fig5Cycles)/f.Fig5S/1e6)
	b.set("device.mcyc_per_s.rest", float64(f.SimCycles-f.Fig5Cycles)/(f.DeviceRunS-f.Fig5S)/1e6)
	b.set("device.backups", float64(m.Backups))
	b.set("device.brown_outs", float64(m.BrownOuts))
	b.set("device.periods", float64(m.Periods))
	b.set("device.batched_horizons", float64(m.BatchedHorizons))
}

// storePuts reports the store writes of the catalog that filled it.
func (b *bench) storePuts(ts *timedStore) {
	b.set("sweep.store.put_n", float64(ts.putN.Load()))
	b.set("sweep.store.put_s", time.Duration(ts.putNS.Load()).Seconds())
	b.set("sweep.store.put_bytes", float64(ts.putBytes.Load()))
}

// serveTraced fills the traced server once and runs the whole steady
// schedule against it, naming every tenth hit's trace, while profiling
// the server.
func (b *bench) serveTraced(ctx context.Context, e *env) error {
	clients := newClients(conns)
	defer closeClients(clients)
	fill := runFill(ctx, clients, e.srv.base, true)
	b.op(fill.Total, fill.Failed)
	b.info("fill: %d requests in %.4fs, %v", fill.Total, fill.Wall.Seconds(), fill.Cache)
	same := sameAs(fill.Bodies)
	n := max(minSteadyReqs, int(steadyRate*b.budget(steadyShare).Seconds()))
	reqs := mixSchedule(b.seed, n, steadyRate, experiments.FigureIDs())
	prof := make(chan profResult, 1)
	go func() { prof <- serverProfile(ctx, e.srv, time.Duration(float64(n)/steadyRate*float64(time.Second))) }()
	res := runOpenLoop(ctx, clients, e.srv.base, reqs, same, 10)
	b.op(len(reqs), stepFailures(reqs, res))
	var lates []float64
	for _, o := range res.Out {
		lates = append(lates, float64(o.Late)/1e6)
	}
	b.set("loadgen.late_p50_ms", median(lates))
	b.set("loadgen.late_p99_ms", percentile(lates, 99))
	b.set("loadgen.backlog_max", float64(res.BacklogMax))

	resp := map[string]int{}
	for k, v := range fill.Cache {
		resp[k] += v
	}
	for i, o := range res.Out {
		if reqs[i].Kind == kindHit {
			resp[o.Cache]++
		}
	}
	b.set("ehserve.resp.miss", float64(resp["miss"]))
	b.set("ehserve.resp.hit", float64(resp["hit"]))
	b.set("ehserve.resp.coalesced", float64(resp["coalesced"]))

	c := clients[0]
	var handler, transport []float64
	for _, o := range res.Out {
		if o.Trace == "" {
			continue
		}
		tree, err := fetchTrace(ctx, c, e.srv.base, o.Trace)
		b.check("trace "+o.Trace, err)
		if err != nil {
			continue
		}
		h := spanTotal(tree, "request") * 1e3
		handler = append(handler, h)
		transport = append(transport, float64(o.Service)/1e6-h)
	}
	wait := 0.0
	for _, id := range fill.Traces {
		tree, err := fetchTrace(ctx, c, e.srv.base, id)
		b.check("trace "+id, err)
		if err != nil {
			continue
		}
		wait += spanTotal(tree, "singleflight.wait")
	}
	b.set("ehserve.handler_p50_ms", median(handler))
	b.set("ehserve.transport_p50_ms", median(transport))
	b.set("ehserve.singleflight_wait_s", wait)
	m, err := e.srv.metricsJSON(ctx, c)
	b.check("/metrics", err)
	b.set("ehserve.cells_computed", counter(m, "cache_misses")+counter(m, "cache_bypass"))
	pr := <-prof
	b.check("server profile", pr.err)
	b.info("server profile: %d samples, shares %s", pr.samples, fmtShares(pr.shares))
	b.set("nethttp.cpu_share", pr.shares["nethttp"])
	b.set("gc.cpu_share", pr.shares["gc"])
	return nil
}

// staticTraced profiles the static passes and times each public call.
func (b *bench) staticTraced() error {
	st, err := b.newStaticRun()
	if err != nil {
		return err
	}
	var passes []staticPass
	shares, samples, err := profiled(func() error {
		passes = b.staticPasses(st, b.budget(staticShare))
		return nil
	})
	if err != nil {
		return err
	}
	b.info("static profile: %d samples, shares %s", samples, fmtShares(shares))
	b.set("analyze.cpu_share", shares["analyze"])
	col := func(f func(p staticPass) float64) float64 {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	b.set("analyze.analyze_s", col(func(p staticPass) float64 { return p.AnalyzeS }))
	b.set("analyze.tasks_s", col(func(p staticPass) float64 { return p.TasksS }))
	b.set("analyze.wcec_s", col(func(p staticPass) float64 { return p.WCECS }))
	b.set("workload.build_s", col(func(p staticPass) float64 { return p.BuildS }))
	b.set("analyze.findings", float64(passes[0].Findings))
	b.set("analyze.wcec_regions", float64(passes[0].Regions))
	return nil
}

type profResult struct {
	shares  map[string]float64
	samples int64
	err     error
}

// serverProfile takes a CPU profile of the traced server over d.
func serverProfile(ctx context.Context, s *server, d time.Duration) profResult {
	secs := max(1, int(d.Round(time.Second)/time.Second))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", s.pprof, secs), nil)
	if err != nil {
		return profResult{err: err}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return profResult{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return profResult{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return profResult{err: fmt.Errorf("pprof: status %d", resp.StatusCode)}
	}
	shares, n, err := layerShares(body)
	return profResult{shares, n, err}
}

// fetchTrace returns a request's span tree from /v1/trace/{id}.
func fetchTrace(ctx context.Context, c *http.Client, base, id string) ([]*obsv.SpanNode, error) {
	status, _, body, err := get(ctx, c, base+"/v1/trace/"+id, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d", status)
	}
	var doc struct {
		Tree []*obsv.SpanNode `json:"tree"`
	}
	return doc.Tree, json.Unmarshal(body, &doc)
}

// spanTotal sums the durations, in seconds, of the spans named name.
func spanTotal(nodes []*obsv.SpanNode, name string) float64 {
	t := 0.0
	for _, n := range nodes {
		if n.Name == name {
			t += float64(n.DurUS) / 1e6
		}
		t += spanTotal(n.Children, name)
	}
	return t
}

func fmtShares(s map[string]float64) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return s[keys[i]] > s[keys[j]] })
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.3f", k, s[k]))
	}
	return strings.Join(parts, " ")
}

func fmtFigures(f spanFold) string {
	var parts []string
	for _, id := range experiments.FigureIDs() {
		if s, ok := f.FigureS[id]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.3fs/%dcyc", id, s, f.FigureSimCycles[id]))
		}
	}
	return strings.Join(parts, " ")
}
