package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ehmodel/internal/analyze"
	"ehmodel/internal/asm"
	"ehmodel/internal/energy"
	"ehmodel/internal/workload"
)

// The static passes are what `ehlint -golden`, `-golden -tasks` and
// `-golden -wcec` render: every built-in workload in both data
// placements through analyze.Analyze, analyze.Tasks and analyze.WCEC
// (checkpoint and task region semantics). A pass is correct when its
// three renders equal the committed results/ehlint_*.golden files.

// staticUnit is one workload in one data placement.
type staticUnit struct {
	name, segName string
	seg           asm.Segment
}

// staticUnits lists the units in the goldens' order.
func staticUnits() []staticUnit {
	names := workload.Names()
	sort.Strings(names)
	var us []staticUnit
	for _, n := range names {
		us = append(us, staticUnit{n, "sram", asm.SRAM}, staticUnit{n, "fram", asm.FRAM})
	}
	return us
}

// staticOrder is the seeded order in which a pass visits the units.
func staticOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// staticPass is one timed pass of the three analyses.
type staticPass struct {
	Wall                            time.Duration
	BuildS, AnalyzeS, TasksS, WCECS float64
	Findings, Regions               int
	LintText, TasksText, WCECText   string
}

// wcecBudgetJ is ehlint's default energy budget (-emax 20000 ALU cycles).
var wcecBudgetJ = 20000 * energy.MSP430Power().EnergyPerCycle(energy.ClassALU)

func runStaticPass(units []staticUnit, order []int) (staticPass, error) {
	var p staticPass
	lint := make([]string, len(units))
	tasks := make([]string, len(units))
	wcec := make([]string, len(units))
	start := time.Now()
	lap := func(acc *float64, t time.Time) time.Time {
		now := time.Now()
		*acc += now.Sub(t).Seconds()
		return now
	}
	for _, i := range order {
		u := units[i]
		head := fmt.Sprintf("== %s/%s ==\n", u.name, u.segName)
		t := time.Now()
		w, ok := workload.Get(u.name)
		if !ok {
			return p, fmt.Errorf("unknown workload %q", u.name)
		}
		prog, err := w.Build(workload.Options{Seg: u.seg, Scale: 1})
		if err != nil {
			return p, fmt.Errorf("building %s: %w", u.name, err)
		}
		t = lap(&p.BuildS, t)

		rep, err := analyze.Analyze(prog, analyze.Options{})
		if err != nil {
			return p, fmt.Errorf("analyze %s/%s: %w", u.name, u.segName, err)
		}
		t = lap(&p.AnalyzeS, t)
		var b strings.Builder
		b.WriteString(head)
		if len(rep.Findings) == 0 {
			b.WriteString("no findings\n")
		}
		for _, f := range rep.Findings {
			fmt.Fprintf(&b, "%-7s %-28s %s: %s\n", f.Sev, f.Kind, f.Where, f.Msg)
		}
		lint[i] = b.String()
		p.Findings += len(rep.Findings)

		t = time.Now()
		tt, err := analyze.Tasks(prog, analyze.Options{})
		if err != nil {
			return p, fmt.Errorf("tasks %s/%s: %w", u.name, u.segName, err)
		}
		t = lap(&p.TasksS, t)
		tasks[i] = head + tt.String()

		b.Reset()
		b.WriteString(head)
		for _, mode := range []analyze.WCECMode{analyze.WCECCheckpoint, analyze.WCECTask} {
			tbl, err := analyze.WCEC(prog, analyze.WCECOptions{Mode: mode, BudgetJ: wcecBudgetJ})
			if err != nil {
				return p, fmt.Errorf("wcec %s/%s: %w", u.name, u.segName, err)
			}
			p.Regions += len(tbl.Regions)
			b.WriteString(tbl.String())
		}
		lap(&p.WCECS, t)
		wcec[i] = b.String()
	}
	p.Wall = time.Since(start)
	p.LintText, p.TasksText, p.WCECText = strings.Join(lint, ""), strings.Join(tasks, ""), strings.Join(wcec, "")
	return p, nil
}

// goldens are the committed ehlint renders a pass must reproduce.
type goldens struct{ lint, tasks, wcec string }

func loadGoldens(root string) (goldens, error) {
	var g goldens
	for _, f := range []struct {
		name string
		dst  *string
	}{
		{"ehlint_workloads.golden", &g.lint},
		{"ehlint_tasks.golden", &g.tasks},
		{"ehlint_wcec.golden", &g.wcec},
	} {
		b, err := os.ReadFile(filepath.Join(root, "results", f.name))
		if err != nil {
			return g, err
		}
		*f.dst = string(b)
	}
	return g, nil
}

// mismatch names the renders of p that differ from the goldens.
func (g goldens) mismatch(p staticPass) []string {
	var bad []string
	if p.LintText != g.lint {
		bad = append(bad, "ehlint_workloads.golden")
	}
	if p.TasksText != g.tasks {
		bad = append(bad, "ehlint_tasks.golden")
	}
	if p.WCECText != g.wcec {
		bad = append(bad, "ehlint_wcec.golden")
	}
	return bad
}
