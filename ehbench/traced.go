package main

import (
	"bytes"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"ehmodel/internal/device"
	"ehmodel/internal/obsv"
	"ehmodel/internal/sweep"
)

// The traced run turns on what the program already emits — the span
// tree (cell and device.run spans, as ehfigs -trace-spans records them)
// and the device lifecycle counters (an obsv.Collector installed with
// device.SetDefaultObserver) — and adds, from outside, a timing wrapper
// around the result store, a span per figure and CPU profiles. All of
// it stays in memory until the run prints its per-layer numbers.

// timedStore counts and times every Get and Put of the store it wraps.
type timedStore struct {
	inner                 sweep.Store
	getN, getNS, getBytes atomic.Int64
	putN, putNS, putBytes atomic.Int64
}

func (s *timedStore) Get(k sweep.Key) ([]byte, bool) {
	t := time.Now()
	b, ok := s.inner.Get(k)
	s.getNS.Add(int64(time.Since(t)))
	s.getN.Add(1)
	s.getBytes.Add(int64(len(b)))
	return b, ok
}

func (s *timedStore) Put(k sweep.Key, enc []byte) error {
	t := time.Now()
	err := s.inner.Put(k, enc)
	s.putNS.Add(int64(time.Since(t)))
	s.putN.Add(1)
	s.putBytes.Add(int64(len(enc)))
	return err
}

// openTimed opens a disk-backed executor (the ehfigs -cache disk
// configuration) with its store behind a timedStore.
func openTimed(dir string) (*sweep.Executor, *timedStore, error) {
	e, err := sweep.OpenExecutor("disk", dir)
	if err != nil {
		return nil, nil, err
	}
	ts := &timedStore{inner: e.Store()}
	return sweep.NewExecutor(ts), ts, nil
}

// installCollector routes every device's lifecycle events into coll
// until the returned func is called.
func installCollector(coll *obsv.Collector) func() {
	device.SetDefaultObserver(func() obsv.Tracer { return coll.Tracer() })
	return func() { device.SetDefaultObserver(nil) }
}

// spanFold is the span tree folded into per-layer numbers.
type spanFold struct {
	DeviceRunS      float64            // Σ device.run
	SimCycles       uint64             // Σ device.run simcycles
	Fig5Cycles      uint64             // device.run cycles under figure 5
	Fig5S           float64            // device.run time under figure 5
	CellS           float64            // Σ cell
	CellSelfS       float64            // Σ (cell − its device.run children)
	BusyFrac        float64            // Σ cell / (workers × catalog wall)
	FigureS         map[string]float64 // figure ID → span time
	FigureSimCycles map[string]uint64  // figure ID → Σ cell simcycles
}

func foldSpans(roots []*obsv.SpanNode, workers int, wall time.Duration) spanFold {
	f := spanFold{FigureS: map[string]float64{}, FigureSimCycles: map[string]uint64{}}
	var walk func(n *obsv.SpanNode, fig string)
	walk = func(n *obsv.SpanNode, fig string) {
		dur := float64(n.DurUS) / 1e6
		switch n.Name {
		case "figure":
			fig = n.Attrs["id"]
			f.FigureS[fig] += dur
		case "cell":
			f.CellS += dur
			self := dur
			for _, c := range n.Children {
				if c.Name == "device.run" {
					self -= float64(c.DurUS) / 1e6
				}
			}
			f.CellSelfS += self
			cyc, _ := strconv.ParseUint(n.Attrs["simcycles"], 10, 64)
			f.FigureSimCycles[fig] += cyc
		case "device.run":
			cyc, _ := strconv.ParseUint(n.Attrs["simcycles"], 10, 64)
			f.DeviceRunS += dur
			f.SimCycles += cyc
			if fig == "5" {
				f.Fig5Cycles += cyc
				f.Fig5S += dur
			}
		}
		for _, c := range n.Children {
			walk(c, fig)
		}
	}
	for _, r := range roots {
		walk(r, "")
	}
	if workers < 1 {
		workers = 1
	}
	f.BusyFrac = f.CellS / (float64(workers) * wall.Seconds())
	return f
}

// profiled runs fn under a CPU profile of this process and returns the
// profile's layer shares and sample count.
func profiled(fn func() error) (map[string]float64, int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, 0, err
	}
	return layerShares(buf.Bytes())
}
