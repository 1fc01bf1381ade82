package analyze

import (
	"reflect"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/isa"
	"ehmodel/internal/workload"
)

// taskProg builds a named workload in the given segment.
func taskProg(t *testing.T, name string, seg asm.Segment) *asm.Program {
	t.Helper()
	w, ok := workload.Get(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	prog, err := w.Build(workload.Options{Seg: seg})
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return prog
}

// TestTasksCutAllHazards is the decomposition pass's soundness claim:
// with every WAR-cut boundary applied, the region-scoped WAR pass finds
// no remaining hazard — every task is idempotent.
func TestTasksCutAllHazards(t *testing.T) {
	for _, name := range []string{"counter", "ds", "crc", "qsort"} {
		for _, seg := range []asm.Segment{asm.SRAM, asm.FRAM} {
			prog := taskProg(t, name, seg)
			tt, err := Tasks(prog, Options{})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, seg, err)
			}
			if len(tt.Tasks) == 0 {
				t.Fatalf("%s/%v: no tasks", name, seg)
			}

			f, err := newFacts(prog, Options{})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, seg, err)
			}
			pcBounds := make(map[int]bool, len(tt.Boundaries))
			for _, pc := range tt.Boundaries {
				pcBounds[pc] = true
			}
			res := runWAR(f.g, f.acc, map[isa.Sys]bool{isa.SysTaskEnd: true}, pcBounds, false, f.lay)
			if len(res.hazards) != 0 {
				t.Errorf("%s/%v: %d WAR hazards survive the task boundaries (first at pc %d)",
					name, seg, len(res.hazards), res.hazards[0].PC)
			}

			if tt.BufWords >= 0 {
				for _, task := range tt.Tasks {
					if task.StoreTop {
						t.Errorf("%s/%v: task %d unbounded but BufWords=%d", name, seg, task.ID, tt.BufWords)
					}
					if len(task.StoreWords) > tt.BufWords {
						t.Errorf("%s/%v: task %d write set %d exceeds BufWords %d",
							name, seg, task.ID, len(task.StoreWords), tt.BufWords)
					}
				}
			}
		}
	}
}

// TestTaskTableRoundTrip pins the serialization: String → ParseTaskTable
// is the identity on every generated table.
func TestTaskTableRoundTrip(t *testing.T) {
	for _, name := range []string{"counter", "ds", "crc", "qsort"} {
		prog := taskProg(t, name, asm.SRAM)
		tt, err := Tasks(prog, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := ParseTaskTable(tt.String())
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", name, err, tt.String())
		}
		if !reflect.DeepEqual(back, tt) {
			t.Fatalf("%s: round trip diverged:\n got %+v\nwant %+v", name, back, tt)
		}
	}
}

// TestParseTaskTableRejects pins error (not panic) behaviour on the
// malformed shapes the fuzzer starts from.
func TestParseTaskTableRejects(t *testing.T) {
	bad := []string{
		"",
		"task 0 entry=0 kind=entry reads=0 words=-",
		"tasktable p tasks=2 bufwords=0 taustore=0\nboundaries -\n",
		"tasktable p tasks=x bufwords=0 taustore=0",
		"tasktable p tasks=0 bufwords=0 taustore=zz",
		"tasktable p tasks=0 bufwords=0 taustore=0\nboundaries 1,q\n",
		"tasktable p tasks=1 bufwords=0 taustore=0\nboundaries -\ntask 0 entry=0 kind=entry reads=0 words=0xzz",
		"tasktable p tasks=9999999999 bufwords=0 taustore=0",
		"garbage line",
	}
	for _, s := range bad {
		if _, err := ParseTaskTable(s); err == nil {
			t.Errorf("ParseTaskTable(%q) accepted malformed input", s)
		}
	}
}

// FuzzParseTaskTable proves the parser never panics and that any input
// it accepts survives a render→reparse cycle.
func FuzzParseTaskTable(f *testing.F) {
	for _, name := range []string{"counter", "crc"} {
		w, ok := workload.Get(name)
		if !ok {
			f.Fatalf("workload %s missing", name)
		}
		prog, err := w.Build(workload.Options{})
		if err != nil {
			f.Fatal(err)
		}
		tt, err := Tasks(prog, Options{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tt.String())
	}
	f.Add("tasktable p tasks=1 bufwords=-1 taustore=1e9\nboundaries 3,5\ntask 0 entry=0 kind=entry reads=-1 words=top\n")
	f.Add("tasktable p tasks=0 bufwords=0 taustore=NaN\nboundaries -\n")
	f.Add("tasktable tasks=1 tasks=1 bufwords=0 taustore=0\nboundaries -\ntask 0 entry=-4 kind=war-store reads=0 words=0xffffffff\n")
	f.Add("# comment\n\n tasktable p tasks=0 bufwords=0 taustore=0\nboundaries -")
	f.Fuzz(func(t *testing.T, s string) {
		tt, err := ParseTaskTable(s)
		if err != nil {
			return
		}
		back, err := ParseTaskTable(tt.String())
		if err != nil {
			t.Fatalf("accepted table failed reparse: %v\nrendered:\n%s", err, tt.String())
		}
		if len(back.Tasks) != len(tt.Tasks) {
			t.Fatalf("reparse changed task count: %d → %d", len(tt.Tasks), len(back.Tasks))
		}
	})
}
