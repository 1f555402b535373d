// Package gcl synthesizes IEEE 802.1Qbv Gate Control Lists from a schedule.
//
// A GCL is the on-switch artifact of TSN scheduling: per output port, a
// cyclic list of entries, each opening a subset of the eight priority-queue
// gates for a duration. E-TSN's prioritized slot sharing (paper Sec. III-C)
// maps onto GCLs by opening the ECT gate *in addition to* the owning TCT
// gate during shared slots; strict-priority transmission selection then
// lets an ECT frame preempt the slot the moment it exists, while the TCT
// frame drains through the prudently reserved extra slots.
package gcl

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"etsn/internal/model"
)

// Sentinel errors.
var (
	// ErrBadSchedule marks a schedule that cannot be compiled to GCLs.
	ErrBadSchedule = errors.New("schedule not compilable to GCL")
)

// GateMask is a bitmask over the eight priority gates; bit i set means the
// gate of priority i is open.
type GateMask uint8

// Open reports whether the gate of the given priority is open.
func (m GateMask) Open(priority int) bool { return m&(1<<priority) != 0 }

// With returns the mask with the given priority's gate opened.
func (m GateMask) With(priority int) GateMask { return m | 1<<priority }

// String renders the mask as its open priorities, e.g. "{0,5,7}".
func (m GateMask) String() string {
	out := "{"
	first := true
	for p := 0; p < model.NumPriorities; p++ {
		if m.Open(p) {
			if !first {
				out += ","
			}
			out += string(rune('0' + p))
			first = false
		}
	}
	return out + "}"
}

// Entry is one row of a Gate Control List: a gate state held for a duration.
type Entry struct {
	// Duration is how long the gate states are held.
	Duration time.Duration
	// Gates is the set of open gates during the entry.
	Gates GateMask
}

// PortGCL is the complete gate program of one output port.
type PortGCL struct {
	// Link is the directed link the port feeds.
	Link model.LinkID
	// Cycle is the GCL cycle time (the schedule hyperperiod).
	Cycle time.Duration
	// Entries are executed cyclically; their durations sum to Cycle.
	Entries []Entry
}

// GateAt returns the gate states at an instant (time within the cycle).
func (p *PortGCL) GateAt(t time.Duration) GateMask {
	t %= p.Cycle
	if t < 0 {
		t += p.Cycle
	}
	var acc time.Duration
	for _, e := range p.Entries {
		acc += e.Duration
		if t < acc {
			return e.Gates
		}
	}
	if len(p.Entries) == 0 {
		return 0
	}
	return p.Entries[len(p.Entries)-1].Gates
}

// NextOpen returns the earliest instant >= t (absolute time) at which the
// gate of the given priority is open for at least need consecutive time,
// and the remaining open duration from that instant. ok is false if the
// gate never opens long enough within one full cycle.
func (p *PortGCL) NextOpen(t time.Duration, priority int, need time.Duration) (time.Duration, time.Duration, bool) {
	if p.Cycle <= 0 || len(p.Entries) == 0 {
		return 0, 0, false
	}
	// Walk entries from the cycle containing t, merging consecutive open
	// entries into runs, and return the first run that leaves at least
	// `need` after t. Three passes cover runs that span the cycle edge.
	cycleStart := t - (t % p.Cycle)
	acc := cycleStart
	var runStart time.Duration
	inRun := false
	for pass := 0; pass < 3; pass++ {
		for _, e := range p.Entries {
			if e.Gates.Open(priority) {
				if !inRun {
					runStart = acc
					inRun = true
				}
			} else if inRun {
				if ok, at, avail := runFits(runStart, acc, t, need); ok {
					return at, avail, true
				}
				inRun = false
			}
			acc += e.Duration
		}
	}
	if inRun {
		if ok, at, avail := runFits(runStart, acc, t, need); ok {
			return at, avail, true
		}
	}
	return 0, 0, false
}

// runFits checks whether the open run [runStart, runEnd) leaves at least
// need after instant t.
func runFits(runStart, runEnd, t, need time.Duration) (bool, time.Duration, time.Duration) {
	start := runStart
	if start < t {
		start = t
	}
	if runEnd-start >= need {
		return true, start, runEnd - start
	}
	return false, 0, 0
}

// Config controls GCL synthesis.
type Config struct {
	// OpenECTOnShared opens the ECT gate during every shared TCT slot
	// (E-TSN prioritized slot sharing). Baselines leave it false.
	OpenECTOnShared bool
	// ECTPriority is the gate opened for ECT during shared slots;
	// defaults to model.PriorityECT.
	ECTPriority int
	// UnallocatedGates is the gate set opened whenever no slot is
	// scheduled; defaults to best effort only. The AVB baseline adds
	// model.PriorityAVB here.
	UnallocatedGates GateMask
}

func (c Config) withDefaults() Config {
	if c.ECTPriority == 0 {
		c.ECTPriority = model.PriorityECT
	}
	if c.UnallocatedGates == 0 {
		c.UnallocatedGates = 1 << model.PriorityBestEffort
	}
	return c
}

// Synthesize compiles a schedule into one GCL per used link. Slot instances
// are unrolled over the hyperperiod, gates of overlapping slots are OR-ed
// (superposition slots), shared TCT slots additionally open the ECT gate
// when configured, and unallocated time opens the configured default gates.
func Synthesize(sched *model.Schedule, cfg Config) (map[model.LinkID]*PortGCL, error) {
	return Resynthesize(nil, nil, sched, cfg)
}

// Resynthesize is Synthesize for a schedule that replaces a deployed one:
// prev must be Synthesize(prevSched, cfg). A port's program depends only on
// its link's slots, the hyperperiod and the time unit behind those slots,
// so every link whose three are unchanged keeps prev's *PortGCL and only
// the rest are compiled. The result equals Synthesize(sched, cfg), and
// ChangedPorts against prev skips the reused ports by pointer. Programs are
// never modified after synthesis, so sharing them between the two maps is
// safe. A nil prevSched compiles every link.
func Resynthesize(prevSched *model.Schedule, prev map[model.LinkID]*PortGCL, sched *model.Schedule, cfg Config) (map[model.LinkID]*PortGCL, error) {
	cfg = cfg.withDefaults()
	if sched.Hyperperiod <= 0 {
		return nil, fmt.Errorf("%w: non-positive hyperperiod %v", ErrBadSchedule, sched.Hyperperiod)
	}
	reuse := prevSched != nil && prevSched.Hyperperiod == sched.Hyperperiod
	out := make(map[model.LinkID]*PortGCL)
	for _, lid := range sched.Links() {
		if reuse {
			if g := prev[lid]; g != nil && sameLink(prevSched, sched, lid) {
				out[lid] = g
				continue
			}
		}
		gcl, err := synthesizeLink(sched, lid, cfg)
		if err != nil {
			return nil, err
		}
		out[lid] = gcl
	}
	return out, nil
}

// sameLink reports whether a link's slots and their time unit are the same
// in both schedules, so its synthesized program is too.
func sameLink(a, b *model.Schedule, lid model.LinkID) bool {
	sa, sb := a.SlotsOn(lid), b.SlotsOn(lid)
	return slices.Equal(sa, sb) && unitOf(a, sa) == unitOf(b, sb)
}

// event is a +mask/-mask boundary in the unit timeline.
type event struct {
	at   int64
	mask GateMask
	open bool
}

func synthesizeLink(sched *model.Schedule, lid model.LinkID, cfg Config) (*PortGCL, error) {
	slots := sched.SlotsOn(lid)
	if len(slots) == 0 {
		return &PortGCL{Link: lid, Cycle: sched.Hyperperiod,
			Entries: []Entry{{Duration: sched.Hyperperiod, Gates: cfg.UnallocatedGates}}}, nil
	}
	// All slots on a link share the schedule's unit; recover it from the
	// hyperperiod and the slot periods.
	unit := unitOf(sched, slots)
	hyperU := int64(sched.Hyperperiod) / int64(unit)

	var events []event
	for i := range slots {
		fs := &slots[i]
		if fs.Period <= 0 || hyperU%fs.Period != 0 {
			return nil, fmt.Errorf("%w: slot period %d does not divide hyperperiod %d on %s",
				ErrBadSchedule, fs.Period, hyperU, lid)
		}
		mask := GateMask(0).With(fs.Priority)
		if cfg.OpenECTOnShared && fs.Shared {
			mask = mask.With(cfg.ECTPriority)
		}
		for rep := int64(0); rep < hyperU/fs.Period; rep++ {
			start := (fs.Offset + rep*fs.Period) % hyperU
			end := start + fs.Length
			if end <= hyperU {
				events = append(events,
					event{at: start, mask: mask, open: true},
					event{at: end, mask: mask, open: false})
			} else {
				// Slot wraps the hyperperiod edge; split it.
				events = append(events,
					event{at: start, mask: mask, open: true},
					event{at: hyperU, mask: mask, open: false},
					event{at: 0, mask: mask, open: true},
					event{at: end - hyperU, mask: mask, open: false})
			}
		}
	}
	slices.SortFunc(events, func(a, b event) int { return cmp.Compare(a.at, b.at) })

	// Sweep: track per-priority open counts, emit entries between
	// boundaries.
	var entries []Entry
	var counts [model.NumPriorities]int
	emit := func(from, to int64) {
		if to <= from {
			return
		}
		var mask GateMask
		for p := 0; p < model.NumPriorities; p++ {
			if counts[p] > 0 {
				mask = mask.With(p)
			}
		}
		if mask == 0 {
			mask = cfg.UnallocatedGates
		}
		d := model.UnitsToDuration(to-from, unit)
		if len(entries) > 0 && entries[len(entries)-1].Gates == mask {
			entries[len(entries)-1].Duration += d
		} else {
			entries = append(entries, Entry{Duration: d, Gates: mask})
		}
	}
	prev := int64(0)
	i := 0
	for i < len(events) {
		at := events[i].at
		emit(prev, at)
		for i < len(events) && events[i].at == at {
			for p := 0; p < model.NumPriorities; p++ {
				if events[i].mask.Open(p) {
					if events[i].open {
						counts[p]++
					} else {
						counts[p]--
					}
				}
			}
			i++
		}
		prev = at
	}
	emit(prev, hyperU)

	// Merge the cycle edge if first and last entries share a mask is not
	// needed for correctness (GateAt handles the boundary), keep as is.
	g := &PortGCL{Link: lid, Cycle: sched.Hyperperiod, Entries: entries}
	var total time.Duration
	for _, e := range g.Entries {
		total += e.Duration
	}
	if total != g.Cycle {
		return nil, fmt.Errorf("%w: entries sum to %v, cycle %v on %s", ErrBadSchedule, total, g.Cycle, lid)
	}
	return g, nil
}

// unitOf recovers the time unit: hyperperiod duration divided by hyperperiod
// units, where units are implied by slot periods and the streams' durations.
func unitOf(sched *model.Schedule, slots []model.FrameSlot) time.Duration {
	// A slot's Period (units) corresponds to its stream's Period duration.
	for i := range slots {
		s := sched.Streams[slots[i].Stream]
		if s != nil && slots[i].Period > 0 {
			return time.Duration(int64(s.Period) / slots[i].Period)
		}
	}
	return model.DefaultTimeUnit
}

// Stats summarizes a synthesized GCL set.
type Stats struct {
	// Ports is the number of programmed ports.
	Ports int
	// Entries is the total number of GCL entries.
	Entries int
	// MaxEntriesPerPort is the largest per-port entry count (hardware
	// tables bound this).
	MaxEntriesPerPort int
}

// Summarize computes table statistics over a GCL set.
func Summarize(gcls map[model.LinkID]*PortGCL) Stats {
	st := Stats{Ports: len(gcls)}
	for _, g := range gcls {
		st.Entries += len(g.Entries)
		if len(g.Entries) > st.MaxEntriesPerPort {
			st.MaxEntriesPerPort = len(g.Entries)
		}
	}
	return st
}

// ChangedPorts returns the links whose gate program differs between two GCL
// sets, sorted; a port present in only one set counts as changed. A recovery
// controller distributes only these programs, so the list is the size of the
// mid-run reconfiguration.
func ChangedPorts(old, new map[model.LinkID]*PortGCL) []model.LinkID {
	changed := make(map[model.LinkID]bool)
	for lid, g := range old {
		if !samePrograms(g, new[lid]) {
			changed[lid] = true
		}
	}
	for lid, g := range new {
		if !samePrograms(g, old[lid]) {
			changed[lid] = true
		}
	}
	out := make([]model.LinkID, 0, len(changed))
	for lid := range changed {
		out = append(out, lid)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// samePrograms compares two gate programs entry by entry; a program reused
// by Resynthesize compares by pointer.
func samePrograms(a, b *PortGCL) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Cycle != b.Cycle || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}
