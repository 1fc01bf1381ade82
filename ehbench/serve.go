package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ehmodel/internal/core"
	"ehmodel/internal/experiments"
)

// server is one running ehserve process.
type server struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	pprof string // net/http/pprof address (traced build only)
	done  chan error
}

// freeAddr returns a loopback address with a port free at the time of
// the call.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer runs bin with args on a free loopback port and waits until
// /healthz answers. withPprof also serves net/http/pprof (the traced
// build links the listener in).
func startServer(bin, logPath string, args []string, withPprof bool) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer log.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	if withPprof {
		if s.pprof, err = freeAddr(); err != nil {
			return nil, err
		}
		cmd.Env = append(os.Environ(), "EHBENCH_PPROF="+s.pprof)
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.done <- cmd.Wait() }()
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("ehserve exited during start-up: %v (log %s)", err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop() //nolint:errcheck // already failing
			return nil, errors.New("ehserve never became healthy")
		}
	}
}

// peakRSSMB reads the server's peak resident set (VmHWM).
func (s *server) peakRSSMB() float64 {
	return vmHWM(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// stop shuts the server down gracefully and waits for it to exit.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // exit is awaited below
	select {
	case err := <-s.done:
		return err
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // exit is awaited below
		<-s.done
		return errors.New("ehserve did not drain within 20s")
	}
}

// fillResult is the closed-loop fill: both connections request every
// quick catalog figure at once.
type fillResult struct {
	Wall   time.Duration
	Bodies map[string][]byte // path → body, from connection 0
	Cache  map[string]int    // X-EH-Cache → count
	Traces []string          // trace IDs of the fill requests (traced runs)
	Failed int
	Total  int
}

func runFill(ctx context.Context, clients []*http.Client, base string, traced bool) fillResult {
	ids := experiments.FigureIDs()
	type got struct {
		status int
		cache  string
		body   []byte
		err    error
		trace  string
	}
	per := make([][]got, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range clients {
		per[ci] = make([]got, len(ids))
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			for i, id := range ids {
				g := &per[ci][i]
				if traced {
					g.trace = fmt.Sprintf("f%03x%012x", ci, i)
				}
				g.status, g.cache, g.body, g.err = get(ctx, c, base+figurePath(id), g.trace)
			}
		}(ci, c)
	}
	wg.Wait()
	fr := fillResult{Wall: time.Since(start), Bodies: map[string][]byte{}, Cache: map[string]int{}}
	for i, id := range ids {
		ok := true
		for ci := range per {
			g := per[ci][i]
			fr.Total++
			fr.Cache[g.cache]++
			if g.trace != "" {
				fr.Traces = append(fr.Traces, g.trace)
			}
			if g.err != nil || g.status != http.StatusOK || !bytes.Equal(g.body, per[0][i].body) {
				fr.Failed++
				ok = false
				fmt.Fprintf(os.Stderr, "ehbench: fill %s on connection %d: status %d err %v\n", id, ci, g.status, g.err)
			}
		}
		if ok {
			fr.Bodies[figurePath(id)] = per[0][i].body
		}
	}
	return fr
}

// checkQuery verifies a model or sweep response against the model
// evaluated in-process with the same parameters.
func checkQuery(r *request, body []byte) error {
	pr := core.DefaultParams()
	pr.TauB = r.TauB
	switch r.Kind {
	case kindModel:
		pr.AlphaB = r.AlphaB
		var got struct {
			Progress float64 `json:"progress"`
			TauBOpt  float64 `json:"tau_b_opt"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Progress != pr.Progress() || got.TauBOpt != pr.TauBOpt() {
			return fmt.Errorf("model progress %v τ_B,opt %v, want %v %v", got.Progress, got.TauBOpt, pr.Progress(), pr.TauBOpt())
		}
	case kindSweep:
		var got struct {
			Points  []core.SweepPoint `json:"points"`
			TauBOpt float64           `json:"tau_b_opt"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want := pr.SweepTauB(core.LogSpace(1, r.Hi, sweepPoints), core.DeadAverage)
		if got.TauBOpt != pr.TauBOpt() || !reflect.DeepEqual(got.Points, want) {
			return errors.New("sweep points differ from the model")
		}
	}
	return nil
}

// stepFailures counts the failed requests of an open-loop step.
func stepFailures(reqs []request, res stepResult) int {
	failed := 0
	for i, o := range res.Out {
		r := &reqs[i]
		var err error
		switch {
		case o.Err != nil:
			err = o.Err
		case o.Status != http.StatusOK:
			err = fmt.Errorf("status %d", o.Status)
		case r.Kind == kindHit && o.Body != nil: // kept only on a mismatch
			err = errors.New("figure differs from the fill")
		case r.Kind != kindHit:
			err = checkQuery(r, o.Body)
		}
		if err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "ehbench: %s %s: %v\n", r.Kind, r.Path, err)
			}
		}
	}
	return failed
}

// latencies splits a step's due-to-done latencies, in milliseconds, into
// figure hits and model/sweep queries.
func latencies(reqs []request, res stepResult) (hits, queries []float64) {
	for i, o := range res.Out {
		ms := float64(o.Lat) / 1e6
		if reqs[i].Kind == kindHit {
			hits = append(hits, ms)
		} else {
			queries = append(queries, ms)
		}
	}
	return hits, queries
}

// metricsJSON fetches the server's /metrics counters.
func (s *server) metricsJSON(ctx context.Context, c *http.Client) (map[string]any, error) {
	status, _, body, err := get(ctx, c, s.base+"/metrics?format=json", "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	var m map[string]any
	return m, json.Unmarshal(body, &m)
}

// counter reads a numeric counter out of a decoded /metrics document.
func counter(m map[string]any, name string) float64 {
	v, _ := m[name].(float64)
	return v
}

// buildServer builds cmd/ehserve into dir. The traced variant adds
// ehserve_pprof.go.in to the package through a build overlay, which
// links a net/http/pprof listener without touching the command's source.
func buildServer(root, dir string, traced bool) (string, error) {
	name := "ehserve"
	args := []string{"build"}
	if traced {
		name = "ehserve-pprof"
		overlay := filepath.Join(dir, "overlay.json")
		doc, err := json.Marshal(map[string]map[string]string{"Replace": {
			filepath.Join(root, "cmd", "ehserve", "zz_ehbench_pprof.go"): filepath.Join(root, "ehbench", "ehserve_pprof.go.in"),
		}})
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(overlay, doc, 0o644); err != nil {
			return "", err
		}
		args = append(args, "-overlay", overlay)
	}
	bin := filepath.Join(dir, name)
	return bin, goBuild(root, append(args, "-o", bin, "ehmodel/cmd/ehserve")...)
}

// goBuild runs the go command from the benchmark's module directory.
func goBuild(root string, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = filepath.Join(root, "ehbench")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return nil
}

// vmHWM reads a /proc status file's peak resident set in MB.
func vmHWM(path string) float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
