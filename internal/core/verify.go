package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"etsn/internal/model"
)

// Violation describes one constraint the schedule breaks.
type Violation struct {
	// Kind names the violated constraint family: "bounds", "order",
	// "occurrence", "e2e", "overlap", "priority", or "adjacent".
	Kind string
	// Stream is the offending stream (the first of the pair for overlaps).
	Stream model.StreamID
	// Link is the link the violation occurs on, when applicable.
	Link model.LinkID
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s: stream %s link %s: %s", v.Kind, v.Stream, v.Link, v.Detail)
}

// Verify independently re-checks a scheduling result against the paper's
// constraints (1)-(7). It shares no code with the solvers, so it catches
// solver and placer bugs. A nil return means the schedule is valid.
func Verify(network *model.Network, res *Result) []Violation {
	var out []Violation
	sched := res.Schedule
	unit := schedUnit(network)

	streams := make([]*model.Stream, 0, len(sched.Streams))
	for _, s := range sched.Streams {
		streams = append(streams, s)
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i].ID < streams[j].ID })

	// One grouped copy of each link's slot table serves every per-stream
	// lookup below; Schedule.StreamSlots would allocate and re-sort a fresh
	// slice for every (stream, link) pair in the hot loop.
	idx := buildSlotIndex(sched)
	var perLink [][]model.FrameSlot // reused across streams
	for _, s := range streams {
		if cap(perLink) < len(s.Path) {
			perLink = make([][]model.FrameSlot, len(s.Path))
		}
		out = append(out, verifyStream(network, s, unit, idx, perLink[:len(s.Path)])...)
	}
	out = append(out, verifyOverlaps(res)...)
	return out
}

// slotIndex groups every link's slots by stream, each group ordered by
// frame index. Built once per Verify call; the per-stream sub-slices all
// alias one backing array per link.
type slotIndex map[model.LinkID]map[model.StreamID][]model.FrameSlot

// streamKey is one slot's (Stream, Index) sort key and its position on the
// link: buildSlotIndex sorts these and copies each FrameSlot once.
type streamKey struct {
	stream model.StreamID
	index  int
	pos    int
}

func buildSlotIndex(sched *model.Schedule) slotIndex {
	idx := make(slotIndex)
	var keys []streamKey
	for _, lid := range sched.Links() {
		src := sched.SlotsOn(lid)
		keys = keys[:0]
		for i := range src {
			keys = append(keys, streamKey{stream: src[i].Stream, index: src[i].Index, pos: i})
		}
		slices.SortFunc(keys, func(a, b streamKey) int {
			if c := cmp.Compare(a.stream, b.stream); c != 0 {
				return c
			}
			return cmp.Compare(a.index, b.index)
		})
		buf := make([]model.FrameSlot, len(src))
		for i, k := range keys {
			buf[i] = src[k.pos]
		}
		m := make(map[model.StreamID][]model.FrameSlot)
		start := 0
		for i := 1; i <= len(buf); i++ {
			if i == len(buf) || buf[i].Stream != buf[start].Stream {
				m[buf[start].Stream] = buf[start:i:i]
				start = i
			}
		}
		idx[lid] = m
	}
	return idx
}

func (ix slotIndex) slots(id model.StreamID, lid model.LinkID) []model.FrameSlot {
	return ix[lid][id]
}

func schedUnit(network *model.Network) time.Duration {
	unit, err := commonTimeUnit(network)
	if err != nil {
		return model.DefaultTimeUnit
	}
	return unit
}

func verifyStream(network *model.Network, s *model.Stream, unit time.Duration, idx slotIndex, perLink [][]model.FrameSlot) []Violation {
	var out []Violation
	periodU := int64(s.Period) / int64(unit)
	otU := int64(s.OccurrenceTime) / int64(unit)
	e2eU := int64(s.E2E) / int64(unit)

	// (6) priority bands.
	switch {
	case s.Type == model.StreamProb && s.Priority != model.PriorityECT:
		out = append(out, Violation{Kind: "priority", Stream: s.ID,
			Detail: fmt.Sprintf("probabilistic stream has priority %d, want EP=%d", s.Priority, model.PriorityECT)})
	case s.Type == model.StreamDet && s.Share &&
		(s.Priority < model.PrioritySharedLow || s.Priority > model.PrioritySharedHigh):
		out = append(out, Violation{Kind: "priority", Stream: s.ID,
			Detail: fmt.Sprintf("sharing TCT priority %d outside [%d,%d]", s.Priority, model.PrioritySharedLow, model.PrioritySharedHigh)})
	case s.Type == model.StreamDet && !s.Share &&
		(s.Priority < model.PriorityNonSharedLow || s.Priority > model.PriorityNonSharedHigh):
		out = append(out, Violation{Kind: "priority", Stream: s.ID,
			Detail: fmt.Sprintf("non-sharing TCT priority %d outside [%d,%d]", s.Priority, model.PriorityNonSharedLow, model.PriorityNonSharedHigh)})
	}

	for i, lid := range s.Path {
		slots := idx.slots(s.ID, lid)
		if len(slots) == 0 {
			out = append(out, Violation{Kind: "bounds", Stream: s.ID, Link: lid,
				Detail: "no slots scheduled on path link"})
			return out
		}
		perLink[i] = slots
		for j, fs := range slots {
			// (1) fit within the period (in the periodic domain), with a
			// non-negative epoch.
			if fs.Offset < 0 || fs.End() > periodU || fs.Epoch < 0 {
				out = append(out, Violation{Kind: "bounds", Stream: s.ID, Link: lid,
					Detail: fmt.Sprintf("frame %d at [%d,%d) epoch %d outside period %d",
						fs.Index, fs.Offset, fs.End(), fs.Epoch, periodU)})
			}
			// (3) in-order transmission on the unrolled timeline.
			if j > 0 && slots[j-1].VirtualEnd() > fs.VirtualOffset() {
				out = append(out, Violation{Kind: "order", Stream: s.ID, Link: lid,
					Detail: fmt.Sprintf("frame %d starts at %d before frame %d ends at %d",
						fs.Index, fs.VirtualOffset(), slots[j-1].Index, slots[j-1].VirtualEnd())})
			}
		}
	}

	// (2) occurrence time.
	if s.Type == model.StreamProb && perLink[0][0].VirtualOffset() < otU {
		out = append(out, Violation{Kind: "occurrence", Stream: s.ID, Link: s.Path[0],
			Detail: fmt.Sprintf("first frame at %d before occurrence time %d", perLink[0][0].VirtualOffset(), otU)})
	}

	// (7) adjacent links.
	for i := 1; i < len(s.Path); i++ {
		upSlots, downSlots := perLink[i-1], perLink[i]
		upLink, _ := network.LinkByID(s.Path[i-1])
		prop := int64(0)
		if upLink != nil {
			prop = upLink.PropUnits()
		}
		o := len(upSlots) - len(downSlots)
		if o < 0 {
			o = 0
		}
		for j := range downSlots {
			upIdx := j + o
			if upIdx >= len(upSlots) {
				upIdx = len(upSlots) - 1
			}
			if downSlots[j].VirtualOffset() < upSlots[upIdx].VirtualEnd()+prop {
				out = append(out, Violation{Kind: "adjacent", Stream: s.ID, Link: s.Path[i],
					Detail: fmt.Sprintf("frame %d at %d on %s before upstream frame %d ends at %d (+prop %d) on %s",
						j, downSlots[j].VirtualOffset(), s.Path[i], upIdx, upSlots[upIdx].VirtualEnd(), prop, s.Path[i-1])})
			}
		}
	}

	// (4) end-to-end latency including the last frame's transmission time.
	last := perLink[len(perLink)-1][len(perLink[len(perLink)-1])-1]
	start := perLink[0][0].VirtualOffset()
	if s.Type == model.StreamProb {
		start = otU
	}
	if last.VirtualEnd()-start > e2eU {
		out = append(out, Violation{Kind: "e2e", Stream: s.ID, Link: s.Path[len(s.Path)-1],
			Detail: fmt.Sprintf("latency %d units exceeds bound %d", last.VirtualEnd()-start, e2eU)})
	}
	return out
}

// verifyOverlaps checks constraint (5) on every link: no two slots of
// different streams may overlap in any period instance unless the pair is
// allowed to (same-parent possibilities, or ECT over sharing TCT).
//
// Each link is swept, not compared pair by pair. Slots of one period meet
// only in their single instance, so each period class is sorted by offset
// and scanned; two classes P and Q meet as FrameSlot.Overlaps defines it —
// every instance of either within LCM(P, Q), on the unrolled line, no
// wrap-around — so their instances are laid out over that span and swept
// together. A slot's stream is looked up once per link. Violations come out
// ordered by the two slots' positions in the link's table. This is the
// verifier's own code on purpose: the placer's slotTable answers the same
// question while it builds the schedule, and an oracle sharing it would
// repeat its mistakes.
func verifyOverlaps(res *Result) []Violation {
	var out []Violation
	sched := res.Schedule
	var (
		slots   []model.FrameSlot // the link being swept
		streams []*model.Stream   // by slot position, nil when unknown
		classes []int64           // distinct periods, in order of appearance
		spans   []span
		found   []slotPair
	)
	// hit takes two slots that overlap in time and keeps the pairs
	// constraint (5) forbids.
	hit := func(i, j int) {
		a, b := &slots[i], &slots[j]
		sa, sb := streams[i], streams[j]
		if a.Stream == b.Stream || sa == nil || sb == nil ||
			slotsCanOverlap(sa, sb, a.Reserve, b.Reserve, res.SharedReserves) {
			return
		}
		found = append(found, slotPair{min(i, j), max(i, j), false})
	}
	// Laid out over LCM(P, Q), two slots of one class can meet in instances
	// their own period never pairs up; only the cross-class pairs count.
	hitAcross := func(i, j int) {
		if slots[i].Period != slots[j].Period {
			hit(i, j)
		}
	}
	for _, lid := range sched.Links() {
		slots = sched.SlotsOn(lid)
		streams, classes, found = streams[:0], classes[:0], found[:0]
		unknown := false
		for i := range slots {
			s := sched.Streams[slots[i].Stream]
			streams = append(streams, s)
			unknown = unknown || s == nil
			if slots[i].Period > 0 && !slices.Contains(classes, slots[i].Period) {
				classes = append(classes, slots[i].Period)
			}
		}
		for p, P := range classes {
			spans = sweepSpans(appendInstances(spans[:0], slots, P, P), hit)
			for _, Q := range classes[p+1:] {
				hyper := model.LCM(P, Q)
				spans = appendInstances(spans[:0], slots, P, hyper)
				spans = sweepSpans(appendInstances(spans, slots, Q, hyper), hitAcross)
			}
		}
		// A slot of a stream the schedule does not define breaks every pair
		// it is part of, overlapping or not.
		for i := 0; unknown && i < len(slots); i++ {
			for j := i + 1; j < len(slots); j++ {
				if (streams[i] == nil || streams[j] == nil) && slots[i].Stream != slots[j].Stream {
					found = append(found, slotPair{i, j, true})
				}
			}
		}

		slices.SortFunc(found, func(x, y slotPair) int {
			if c := cmp.Compare(x.i, y.i); c != 0 {
				return c
			}
			return cmp.Compare(x.j, y.j)
		})
		// Two slots of different periods can meet in several instances.
		found = slices.Compact(found)
		for _, f := range found {
			a, b := &slots[f.i], &slots[f.j]
			detail := "slot references unknown stream"
			if !f.unknown {
				detail = fmt.Sprintf("frame %d overlaps stream %s frame %d", a.Index, b.Stream, b.Index)
			}
			out = append(out, Violation{Kind: "overlap", Stream: a.Stream, Link: lid, Detail: detail})
		}
	}
	return out
}

// slotPair is two positions i < j in a link's slot table that break
// constraint (5); unknown marks the pairs with an undefined stream.
type slotPair struct {
	i, j    int
	unknown bool
}

// span is one instance of a slot on the unrolled timeline.
type span struct {
	start, end int64
	slot       int
}

// appendInstances appends every instance within [0, hyper) of the slots
// whose period is period.
func appendInstances(spans []span, slots []model.FrameSlot, period, hyper int64) []span {
	for i := range slots {
		if fs := &slots[i]; fs.Period == period {
			for at := fs.Offset; at < fs.Offset+hyper; at += period {
				spans = append(spans, span{start: at, end: at + fs.Length, slot: i})
			}
		}
	}
	return spans
}

// sweepSpans calls hit for every two spans of different slots that overlap
// in time: sorted by start, a span can only meet the followers that start
// before it ends. It returns spans for reuse.
func sweepSpans(spans []span, hit func(i, j int)) []span {
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	for i := range spans {
		a := &spans[i]
		for k := i + 1; k < len(spans) && spans[k].start < a.end; k++ {
			if b := &spans[k]; a.start < b.end && a.slot != b.slot {
				hit(a.slot, b.slot)
			}
		}
	}
	return spans
}

// TCTWorstCase returns the schedule-implied worst-case latency of a TCT
// stream: delivery of its last (possibly prudently added) frame on the last
// link minus the start of its first frame on the first link.
func TCTWorstCase(network *model.Network, res *Result, id model.StreamID) (time.Duration, error) {
	s, ok := res.Schedule.Streams[id]
	if !ok || s.Type != model.StreamDet {
		return 0, fmt.Errorf("%w: no TCT stream %q in schedule", ErrInvalidProblem, id)
	}
	unit := schedUnit(network)
	firstSlots := res.Schedule.StreamSlots(id, s.Path[0])
	lastSlots := res.Schedule.StreamSlots(id, s.Path[len(s.Path)-1])
	if len(firstSlots) == 0 || len(lastSlots) == 0 {
		return 0, fmt.Errorf("%w: stream %q has no slots", ErrInvalidProblem, id)
	}
	lat := lastSlots[len(lastSlots)-1].VirtualEnd() - firstSlots[0].VirtualOffset()
	return model.UnitsToDuration(lat, unit), nil
}

// ECTScheduleWorstCase returns the worst-case ECT latency implied by the
// schedule alone (the paper's constraint-(4) semantics): an event arriving
// just after possibility i-1's occurrence point is served by possibility i,
// so the term is the maximum over i of (delivery_i - ot_{i-1}), with
// wrap-around into the next period after the last possibility. The E-TSN
// constraints guarantee this stays at or below the ECT deadline.
func ECTScheduleWorstCase(network *model.Network, res *Result, parent model.StreamID) (time.Duration, error) {
	sched, _, err := ectWorstCase(network, res, parent)
	return sched, err
}

// ECTWorstCaseBound returns a conservative runtime worst-case latency of an
// ECT stream: the schedule term of ECTScheduleWorstCase plus, per hop, one
// maximal non-preemptible in-flight frame and the largest gap between
// EP-capable gate windows (the extra wait when blocking pushes the frame
// past its reserved window). Simulated latencies stay below this bound; it
// may exceed the paper's constraint-(4) guarantee on sparsely reserved
// links.
func ECTWorstCaseBound(network *model.Network, res *Result, parent model.StreamID) (time.Duration, error) {
	_, runtime, err := ectWorstCase(network, res, parent)
	return runtime, err
}

func ectWorstCase(network *model.Network, res *Result, parent model.StreamID) (time.Duration, time.Duration, error) {
	unit := schedUnit(network)
	type poss struct {
		ot       int64
		delivery int64
	}
	var ps []poss
	var period int64
	var path []model.LinkID
	for _, s := range res.Schedule.Streams {
		if s.Type != model.StreamProb || s.Parent != parent {
			continue
		}
		path = s.Path
		lastSlots := res.Schedule.StreamSlots(s.ID, s.Path[len(s.Path)-1])
		if len(lastSlots) == 0 {
			return 0, 0, fmt.Errorf("%w: possibility %q has no slots", ErrInvalidProblem, s.ID)
		}
		ps = append(ps, poss{
			ot:       int64(s.OccurrenceTime) / int64(unit),
			delivery: lastSlots[len(lastSlots)-1].VirtualEnd(),
		})
		period = int64(s.Period) / int64(unit)
	}
	if len(ps) == 0 {
		return 0, 0, fmt.Errorf("%w: no possibilities for ECT %q", ErrInvalidProblem, parent)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].ot < ps[j].ot })
	worst := int64(0)
	for i := range ps {
		prevOT := int64(0)
		delivery := ps[i].delivery
		if i == 0 {
			// Events after the last possibility wrap into the next
			// period's first possibility.
			prevOT = ps[len(ps)-1].ot
			delivery += period
		} else {
			prevOT = ps[i-1].ot
		}
		if lat := delivery - prevOT; lat > worst {
			worst = lat
		}
	}
	// Per-hop runtime slack on top of the schedule term: one maximal
	// in-flight frame (non-preemptive blocking) plus, if the blocking
	// pushed the frame past its reserved window, the wait until the next
	// EP-capable window on that link.
	var blocking int64
	for _, lid := range path {
		var maxLen, ectLen int64
		for _, fs := range res.Schedule.SlotsOn(lid) {
			if fs.Length > maxLen {
				maxLen = fs.Length
			}
			if fs.Prob && fs.Parent == parent && fs.Length > ectLen {
				ectLen = fs.Length
			}
		}
		blocking += maxLen + maxEPGap(res.Schedule, lid, ectLen, unit)
	}
	return model.UnitsToDuration(worst, unit), model.UnitsToDuration(worst+blocking, unit), nil
}

// maxEPGap returns the largest gap (in units) between consecutive
// EP-capable windows on a link: intervals where the ECT gate is open
// (shared TCT slots, reserve drains, and possibility slots) and long enough
// to carry an ECT frame of the given length, unrolled over the link's
// hyperperiod and merged. Zero means the EP gate is effectively always
// reachable without extra wait.
func maxEPGap(sched *model.Schedule, lid model.LinkID, frameLen int64, unit time.Duration) int64 {
	hyperU := int64(sched.Hyperperiod) / int64(unit)
	if hyperU <= 0 {
		return 0
	}
	type ival struct{ start, end int64 }
	var windows []ival
	for _, fs := range sched.SlotsOn(lid) {
		if !fs.Shared && !fs.Prob {
			continue
		}
		if fs.Length < frameLen || fs.Period <= 0 || hyperU%fs.Period != 0 {
			continue
		}
		for rep := int64(0); rep < hyperU/fs.Period; rep++ {
			start := (fs.Offset + rep*fs.Period) % hyperU
			windows = append(windows, ival{start: start, end: start + fs.Length})
		}
	}
	if len(windows) == 0 {
		return hyperU
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i].start < windows[j].start })
	merged := windows[:1]
	for _, w := range windows[1:] {
		last := &merged[len(merged)-1]
		if w.start <= last.end {
			if w.end > last.end {
				last.end = w.end
			}
		} else {
			merged = append(merged, w)
		}
	}
	var gap int64
	for i := 1; i < len(merged); i++ {
		if g := merged[i].start - merged[i-1].end; g > gap {
			gap = g
		}
	}
	// Wrap-around gap from the last window to the first of the next cycle.
	if g := merged[0].start + hyperU - merged[len(merged)-1].end; g > gap {
		gap = g
	}
	if gap < 0 {
		gap = 0
	}
	return gap
}
