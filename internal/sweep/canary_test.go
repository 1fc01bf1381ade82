package sweep

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/strategy"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// The canary ties the store's cache epoch to simulator semantics. A
// small pinned cell set — one cell per runtime family on the bench
// supply, plus one cell harvesting from an RF spike trace — is run and
// each Result digested. The golden file records those digests under the
// CodeVersion that produced them:
//
//   - same CodeVersion, different digests: a change moved Results
//     without bumping CodeVersion, so the disk store would serve stale
//     results as hits. The test fails and -update refuses to rewrite.
//   - different CodeVersion: the golden is from an older epoch. Rerun
//     with -update to record the new one.
//
// Regenerate with: go test ./internal/sweep -run TestCodeVersionCanary -update
var updateCanary = flag.Bool("update", false, "rewrite testdata/canary.golden after a CodeVersion bump")

const canaryGolden = "testdata/canary.golden"

// canaryCell is one pinned configuration.
type canaryCell struct {
	name  string
	build func(t *testing.T) (device.Config, device.Strategy)
}

// canaryCells lists the pinned set: every catalog runtime on the bench
// supply, and the timer runtime on a harvested RF spike trace.
func canaryCells() []canaryCell {
	var cells []canaryCell
	for _, spec := range strategy.Catalog() {
		spec := spec
		cells = append(cells, canaryCell{"bench/" + spec.Name, func(t *testing.T) (device.Config, device.Strategy) {
			return canaryConfig(t, spec), spec.New()
		}})
	}
	spec, _ := strategy.Lookup("timer")
	cells = append(cells, canaryCell{"rf-spikes/timer", func(t *testing.T) (device.Config, device.Strategy) {
		cfg := canaryConfig(t, spec)
		h, err := energy.NewHarvester(trace.Generate(trace.Spikes, 20, 1e-3, 42), 3000, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Harvester = h
		cfg.MaxPeriods = 40
		return cfg, spec.New()
	}})
	return cells
}

// canaryConfig is the counter workload on a 20 000-ALU-cycle bench
// supply, in the data segment the runtime requires.
func canaryConfig(t *testing.T, spec strategy.Spec) device.Config {
	t.Helper()
	w, ok := workload.Get("counter")
	if !ok {
		t.Fatal("no counter workload")
	}
	prog, err := w.Build(workload.Options{Seg: spec.Seg})
	if err != nil {
		t.Fatal(err)
	}
	pm := energy.MSP430Power()
	capC, vmax, von, voff := device.FixedSupplyConfig(20_000 * pm.EnergyPerCycle(energy.ClassALU))
	return device.Config{
		Prog: prog, Power: pm,
		CapC: capC, CapVMax: vmax, VOn: von, VOff: voff,
		MaxPeriods: 2000,
	}
}

// resultDigest hashes a Result's JSON form, which round-trips every
// float64 exactly.
func resultDigest(t *testing.T, r *device.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// readCanary parses the golden: a "code_version" line, then one
// "name digest" line per cell.
func readCanary(t *testing.T) (version string, digests map[string]string) {
	t.Helper()
	data, err := os.ReadFile(canaryGolden)
	if err != nil {
		t.Fatalf("reading %s: %v (regenerate with -update)", canaryGolden, err)
	}
	digests = map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 2 {
			t.Fatalf("%s: malformed line %q", canaryGolden, sc.Text())
		}
		if f[0] == "code_version" {
			version = f[1]
			continue
		}
		digests[f[0]] = f[1]
	}
	return version, digests
}

func TestCodeVersionCanary(t *testing.T) {
	// The engine's energy ledger is integer, but simulated time and
	// harvest yields are float64, which other architectures may compute
	// with fused multiply-adds. The digests are pinned on amd64.
	if runtime.GOARCH != "amd64" {
		t.Skipf("canary digests are pinned on amd64, running on %s", runtime.GOARCH)
	}
	got := map[string]string{}
	var order []string
	for _, c := range canaryCells() {
		cfg, s := c.build(t)
		d, err := device.New(cfg, s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = resultDigest(t, res)
		order = append(order, c.name)
	}

	version, want := readCanary(t)
	var changed []string
	for _, name := range order {
		if want[name] != got[name] {
			changed = append(changed, name)
		}
	}
	if len(want) != len(got) {
		changed = append(changed, fmt.Sprintf("(cell set: %d pinned, %d run)", len(want), len(got)))
	}

	if *updateCanary {
		if version == CodeVersion && len(changed) > 0 {
			t.Fatalf("refusing to rewrite %s: Results of %v changed under the same CodeVersion %q — bump sweep.CodeVersion first",
				canaryGolden, changed, CodeVersion)
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "# Result digests of the sweep canary cells (see canary_test.go).\n")
		fmt.Fprintf(&buf, "code_version %s\n", CodeVersion)
		for _, name := range order {
			fmt.Fprintf(&buf, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(canaryGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	switch {
	case version != CodeVersion:
		t.Fatalf("%s records CodeVersion %q, code is at %q: regenerate with go test ./internal/sweep -run TestCodeVersionCanary -update",
			canaryGolden, version, CodeVersion)
	case len(changed) > 0:
		t.Fatalf("Results of %v changed without a CodeVersion bump: the result store would serve stale cells as hits. Bump sweep.CodeVersion, then regenerate with -update",
			changed)
	}
}
