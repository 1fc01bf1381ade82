package main

// The metric vocabulary, in BENCHMARK.json's order. Units here and
// there must agree; TestMetricsMatchBenchmarkJSON checks it.
//
// The service mix's tail latencies and its capacity (the highest ladder
// rung within the p99 limit) are printed on every run's info lines but
// are not end-to-end metrics: on a shared 2-vCPU machine their
// run-to-run spread is several times any usable regression bound (see
// README.md).

type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"catalog_s", "s"},
	{"cpu_s", "s"},
	{"sim_mcyc_per_s", "Mcyc/s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"fig5_in_bounds_frac", "ratio"},
	{"fig6_err_geomean", "ratio"},
	{"fig7_pearson", "r"},
	{"fill_s", "s"},
	{"hit_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"lint_s", "s"},
}

var perLayerDefs = []metricDef{
	{"device.run_s", "s"},
	{"device.simcycles", "count"},
	{"device.mcyc_per_s.fig5", "Mcyc/s"},
	{"device.mcyc_per_s.rest", "Mcyc/s"},
	{"device.backups", "count"},
	{"device.brown_outs", "count"},
	{"device.periods", "count"},
	{"device.batched_horizons", "count"},
	{"device.cpu_share", "ratio"},
	{"cpu.cpu_share", "ratio"},
	{"energy.cpu_share", "ratio"},
	{"trace.cpu_share", "ratio"},
	{"asm.cpu_share", "ratio"},
	{"json.cpu_share", "ratio"},
	{"sha256.cpu_share", "ratio"},
	{"nethttp.cpu_share", "ratio"},
	{"gc.cpu_share", "ratio"},
	{"analyze.cpu_share", "ratio"},
	{"sweep.cells", "count"},
	{"sweep.hits", "count"},
	{"sweep.misses", "count"},
	{"sweep.dedup", "count"},
	{"sweep.bypass", "count"},
	{"sweep.hit_ratio", "ratio"},
	{"sweep.store.get_n", "count"},
	{"sweep.store.get_s", "s"},
	{"sweep.store.get_bytes", "B"},
	{"sweep.store.put_n", "count"},
	{"sweep.store.put_s", "s"},
	{"sweep.store.put_bytes", "B"},
	{"sweep.cell_self_s", "s"},
	{"runner.busy_frac", "ratio"},
	{"experiments.fig5_s", "s"},
	{"experiments.hibernus-margin_s", "s"},
	{"experiments.circular_s", "s"},
	{"experiments.tail_s", "s"},
	{"experiments.rest_s", "s"},
	{"experiments.csv_drift_figs", "count"},
	{"ehserve.handler_p50_ms", "ms"},
	{"ehserve.transport_p50_ms", "ms"},
	{"ehserve.resp.miss", "count"},
	{"ehserve.resp.hit", "count"},
	{"ehserve.resp.coalesced", "count"},
	{"ehserve.singleflight_wait_s", "s"},
	{"ehserve.cells_computed", "count"},
	{"analyze.analyze_s", "s"},
	{"analyze.tasks_s", "s"},
	{"analyze.wcec_s", "s"},
	{"workload.build_s", "s"},
	{"analyze.findings", "count"},
	{"analyze.wcec_regions", "count"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"obsv.trace_overhead_frac", "ratio"},
}

var endToEnd, perLayer = names(endToEndDefs), names(perLayerDefs)

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		m[d.name] = d.unit
	}
	return m
}()

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}
