package device

// obslog.go — the observation recorder behind the formal correctness
// oracle (internal/faults). When Config.Record is set, the device logs
// the run's externally meaningful observation sequence: every executed
// SENSE input read with its consumed-cycle timestamp, every checkpoint
// commit with the output words it persisted and the input observations
// it covered, and the restore/cold-start lineage of every boot. The
// oracle replays this log against the continuous-execution semantics to
// detect violations (torn state, replayed inputs, stale outputs,
// timeliness) that the final-memory check cannot see.
//
// Attaching a recorder never changes simulation results: the recorder
// is written to, never read, by the engines. A recorded run steps — it
// takes the per-instruction loop whatever Config.Engine says — and that
// is why its log is exact: every input read and every watched store is
// stamped with the cycle position right after its own instruction. The
// per-step loop lands on the same Result as the batched engine (the
// engine-equivalence oracle proves it), so stepping is result-neutral.
// A nil recorder costs the usual single nil check per emission site.

// obsLogMaxRecords bounds each record slice so a pathological run
// (thousands of replayed periods) cannot grow the log without limit.
// Hitting the bound sets Truncated; classification still runs on the
// recorded prefix.
const obsLogMaxRecords = 1 << 19

// SenseObs is one executed SENSE instruction: the input read of
// sequence index Index at consumed-cycle position Cycle during boot
// Boot. Committed is set when a later checkpoint commit persisted the
// execution window containing it; Commit then indexes ObsLog.Commits.
type SenseObs struct {
	Index     uint32
	Cycle     uint64
	Boot      int32
	Committed bool
	Commit    int
}

// CommitObs is one landed checkpoint commit: its sequence number, the
// consumed-cycle span of the backup ([Start, Cycle]), the boot it
// happened in, the output words it appended to the committed log at
// position OutBase, and the indices (into ObsLog.Senses) of the input
// observations its execution window covered.
type CommitObs struct {
	Seq     uint64
	Start   uint64
	Cycle   uint64
	Boot    int32
	OutBase int
	Out     []uint32
	Senses  []int
}

// BootObs is one power-on: either a restore of commit RestoredSeq
// (with the architectural sense counter it reinstated) or a cold start
// from the program image.
type BootObs struct {
	Cycle       uint64
	Boot        int32
	Cold        bool
	RestoredSeq uint64
	SenseSeq    uint32
}

// HazardStore is a store into one of the watched hazard words — the
// WAR-frontier hint the adversarial fault campaign bites on.
type HazardStore struct {
	Addr  uint32
	Cycle uint64
}

// ObsLog records the observation sequence of one run. Zero value is
// ready to use; attach via Config.Record. The same recorder may be
// reused across sequential runs (the device resets it at Run start).
type ObsLog struct {
	// HazardWords, when non-nil, selects word-aligned data addresses
	// whose stores are recorded as HazardStores (typically the static
	// analyzer's WAR hazard set). Nil disables store recording.
	HazardWords map[uint32]struct{}

	Boots        []BootObs
	Senses       []SenseObs
	Commits      []CommitObs
	HazardStores []HazardStore
	// Truncated reports that a record slice hit its growth bound and
	// later entries of that kind were dropped.
	Truncated bool

	// window indexes the Senses executed since the last commit in the
	// current boot — the observations the next commit will cover.
	window []int
}

// reset clears the log for a fresh run, keeping the HazardWords filter.
func (l *ObsLog) reset() {
	l.Boots = l.Boots[:0]
	l.Senses = l.Senses[:0]
	l.Commits = l.Commits[:0]
	l.HazardStores = l.HazardStores[:0]
	l.Truncated = false
	l.window = l.window[:0]
}

// wantsStore reports whether stores to addr are being watched.
func (l *ObsLog) wantsStore(addr uint32) bool {
	if l.HazardWords == nil {
		return false
	}
	_, ok := l.HazardWords[addr&^3]
	return ok
}

func (l *ObsLog) sense(index uint32, cycle uint64, boot int32) {
	if len(l.Senses) >= obsLogMaxRecords {
		l.Truncated = true
		return
	}
	l.window = append(l.window, len(l.Senses))
	l.Senses = append(l.Senses, SenseObs{Index: index, Cycle: cycle, Boot: boot, Commit: -1})
}

func (l *ObsLog) store(addr uint32, cycle uint64) {
	if len(l.HazardStores) >= obsLogMaxRecords {
		l.Truncated = true
		return
	}
	l.HazardStores = append(l.HazardStores, HazardStore{Addr: addr, Cycle: cycle})
}

// commit closes the current execution window: the senses observed since
// the previous commit in this boot become committed observations of the
// new record.
func (l *ObsLog) commit(seq, start, cycle uint64, boot int32, outBase int, out []uint32) {
	if len(l.Commits) >= obsLogMaxRecords {
		l.Truncated = true
		l.window = l.window[:0]
		return
	}
	co := CommitObs{
		Seq: seq, Start: start, Cycle: cycle, Boot: boot,
		OutBase: outBase,
	}
	if len(out) > 0 {
		co.Out = append([]uint32(nil), out...)
	}
	if len(l.window) > 0 {
		co.Senses = append([]int(nil), l.window...)
	}
	idx := len(l.Commits)
	for _, s := range l.window {
		l.Senses[s].Committed = true
		l.Senses[s].Commit = idx
	}
	l.window = l.window[:0]
	l.Commits = append(l.Commits, co)
}

// powerFail discards the current execution window: its observations
// stay in the log (they were executed) but were never committed.
func (l *ObsLog) powerFail() {
	l.window = l.window[:0]
}

func (l *ObsLog) bootRestore(cycle uint64, boot int32, seq uint64, senseSeq uint32) {
	if len(l.Boots) >= obsLogMaxRecords {
		l.Truncated = true
		return
	}
	l.Boots = append(l.Boots, BootObs{Cycle: cycle, Boot: boot, RestoredSeq: seq, SenseSeq: senseSeq})
}

func (l *ObsLog) bootCold(cycle uint64, boot int32) {
	if len(l.Boots) >= obsLogMaxRecords {
		l.Truncated = true
		return
	}
	l.Boots = append(l.Boots, BootObs{Cycle: cycle, Boot: boot, Cold: true})
}
