// Command ehbench is the repository's benchmark. One run drives the
// whole design-space-exploration stack through its public entry points
// — the full figure catalog over the content-addressed result store,
// the built ehserve answering a seeded service mix over loopback, and
// the three static passes ehlint renders — checks every output, and
// prints one JSON line of metrics.
//
// The two workloads differ in the one input property every cache
// depends on, the result store's temperature:
//
//   - cold: the store is empty. The catalog simulates every cell (one
//     sweep worker, a fresh on-disk store per catalog) and ehserve
//     starts with an empty in-memory cache (-cache mem).
//   - warm: set-up fills an on-disk store once. Each catalog then opens
//     a fresh executor over it, so every cell is a disk read, a decode
//     and a key, as in a restarted process, and ehserve serves from the
//     same filled store (-cache disk).
//
// Run it from the repository root through ehbench/run.sh:
//
//	bash ehbench/run.sh --workload cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with all
// tracing off; with --trace 1 it repeats the work traced and reports
// the per-layer metrics instead. ehbench/README.md lists every metric,
// the layer it belongs to and what it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(benchMain())
}

func benchMain() int {
	wl := flag.String("workload", "", "workload: cold or warm")
	seed := flag.Int64("seed", 1, "workload seed: the service request mix and the static passes' visit order")
	seconds := flag.Float64("seconds", 30, "measurement budget of one run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics untraced")
	root := flag.String("root", ".", "repository checkout to build and read goldens from")
	flag.Parse()
	if *wl != "cold" && *wl != "warm" {
		fmt.Fprintf(os.Stderr, "ehbench: unknown workload %q (want cold or warm)\n", *wl)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ehbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ehbench:", err)
		return 2
	}
	work, err := os.MkdirTemp(filepath.Join(abs, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ehbench:", err)
		return 2
	}
	defer os.RemoveAll(work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{
		root: abs, work: work, workload: *wl, seed: *seed, seconds: *seconds, traced: *trace == 1,
		metrics: map[string]metric{},
	}
	if err := b.run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ehbench:", err)
		return 1
	}
	if missing := b.missingMetrics(); len(missing) > 0 {
		fmt.Fprintln(os.Stderr, "ehbench: metrics not measured:", missing)
		return 1
	}
	out, err := json.Marshal(report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ehbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// missingMetrics lists the metrics this mode must report but did not.
func (b *bench) missingMetrics() []string {
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	var missing []string
	for _, m := range want {
		if _, ok := b.metrics[m]; !ok {
			missing = append(missing, m)
		}
	}
	if len(b.metrics) != len(want) {
		missing = append(missing, fmt.Sprintf("(%d reported, %d expected)", len(b.metrics), len(want)))
	}
	return missing
}
