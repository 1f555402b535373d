package core

import (
	"fmt"
	"sort"

	"etsn/internal/model"
)

// placedSlot is a committed reservation used for conflict checks during
// placement: the slot occupies [offset, offset+length) of every period, and
// never straddles a period boundary (offset+length <= period).
type placedSlot struct {
	offset, length, period int64
}

// groupKind classifies reservations by the paper's frame-overlap exception
// (Sec. IV-B2) with the SharedReserves relaxation: whether two slots may
// overlap depends only on their kinds and, for the keyed kinds, on whether
// their Parent matches.
type groupKind uint8

const (
	// groupExclusive is a non-sharing TCT slot: it overlaps nothing.
	groupExclusive groupKind = iota
	// groupShared is a sharing TCT slot: any possibility may overlap it.
	groupShared
	// groupReserve is a sharing TCT reserve slot under SharedReserves: any
	// possibility, and reserves of the same Parent, may overlap it.
	groupReserve
	// groupProb is an ECT possibility: sharing TCT slots and possibilities
	// of the same Parent may overlap it.
	groupProb
)

// slotClass is a reservation's conflict group key. parent is set for
// groupReserve and groupProb only.
type slotClass struct {
	kind   groupKind
	parent model.StreamID
}

// classOf is the conflict group of a frame of s; reserve says whether the
// frame is reserve capacity.
func classOf(s *model.Stream, reserve, sharedReserves bool) slotClass {
	switch {
	case s.Type == model.StreamProb:
		return slotClass{kind: groupProb, parent: s.Parent}
	case s.Type != model.StreamDet || !s.Share:
		return slotClass{kind: groupExclusive}
	case reserve && sharedReserves:
		return slotClass{kind: groupReserve, parent: s.Parent}
	}
	return slotClass{kind: groupShared}
}

// classesCanOverlap is slotsCanOverlap on conflict groups: every slot of
// group a may overlap every slot of group b, or none may.
func classesCanOverlap(a, b slotClass) bool {
	switch {
	case a.kind == groupExclusive || b.kind == groupExclusive:
		return false
	case (a.kind == groupProb) != (b.kind == groupProb):
		return true
	case a.kind == groupShared || b.kind == groupShared:
		return false
	}
	return a.parent == b.parent // two possibilities, or two reserves
}

// slotGroup holds the reservations of one conflict group on a link.
type slotGroup struct {
	class slotClass
	slots []placedSlot
}

// slotTable is the placement state the first-fit placer, the ALAP placer
// and Admit share: the reservations committed on each link, by dense link
// index (instance.linkIdx) and then by conflict group, and every frame's
// virtual start time, by hop.base + frame index. Both are sized once from
// the instance's layout.
type slotTable struct {
	inst   *instance
	placed [][]slotGroup
	vphi   []int64
}

func newSlotTable(inst *instance) *slotTable {
	return &slotTable{
		inst:   inst,
		placed: make([][]slotGroup, len(inst.linkIdx)),
		vphi:   make([]int64, inst.nFrames),
	}
}

// frameClass is the conflict group of frame j of stream s.
func (t *slotTable) frameClass(s *model.Stream, j int) slotClass {
	return classOf(s, t.inst.isReserveIndex(s, j), t.inst.opts.SharedReserves)
}

// add files a reservation on a link under its conflict group.
func (t *slotTable) add(link int, c slotClass, ps placedSlot) {
	groups := t.placed[link]
	for i := range groups {
		if groups[i].class == c {
			groups[i].slots = append(groups[i].slots, ps)
			return
		}
	}
	t.placed[link] = append(groups, slotGroup{class: c, slots: []placedSlot{ps}})
}

// commit reserves frame j of stream s on hop h at virtual time v.
func (t *slotTable) commit(s *model.Stream, h *hop, j int, v, period int64) {
	t.vphi[h.base+j] = v
	t.add(h.link, t.frameClass(s, j), placedSlot{offset: v % period, length: h.frameLen(s, j), period: period})
}

// checkE2E is constraint (4) on the virtual timeline, including the last
// frame's transmission time.
func (t *slotTable) checkE2E(si int) error {
	inst, s, hops := t.inst, t.inst.streams[si], t.inst.hops[si]
	last := &hops[len(hops)-1]
	end := t.vphi[last.base+last.count-1] + last.frameLen(s, last.count-1)
	start := t.vphi[hops[0].base]
	if s.Type == model.StreamProb {
		start = inst.otFloorUnits[si]
	}
	if end-start > inst.e2eUnits[si] {
		return &PlaceFailure{Stream: s.ID, Link: last.lid,
			Reason: fmt.Sprintf("end-to-end %d units exceeds bound %d", end-start, inst.e2eUnits[si])}
	}
	return nil
}

// solvePlacer schedules the instance with the deterministic first-fit
// placer: it processes streams in a fixed order (TCT by ascending period,
// then probabilistic streams by parent and occurrence time) and places each
// frame at the earliest *virtual* time (an unrolled timeline that may wrap
// past period boundaries) satisfying constraints (1)-(4) and (7), skipping
// over conflicting reservations per constraint (5). Wrapping gives late
// possibilities a pipeline into the next period, which the paper's strict
// formulation cannot express; the slot's Epoch field records the shift. The
// placer is sound (the verifier re-checks its output) but incomplete: on
// failure the caller can fall back to SMT.
func solvePlacer(inst *instance) (*Result, error) {
	sp := inst.opts.Phases.Begin("place")
	defer sp.End()
	t := newSlotTable(inst)
	order := placementOrder(inst.streams)
	if err := t.placeAll(order, inst.opts.SpreadFrames); err != nil {
		if !inst.opts.SpreadFrames {
			return nil, err
		}
		// Spread placement fragments congested links; restart the whole
		// placement ASAP before declaring infeasibility.
		t = newSlotTable(inst)
		if err := t.placeAll(order, false); err != nil {
			return nil, err
		}
	}
	return t.result(BackendPlacer), nil
}

// result materializes the table's assignment.
func (t *slotTable) result(b Backend) *Result {
	res := extractSchedule(t.inst, func(f int) int64 { return t.vphi[f] })
	res.BackendUsed = b
	return res
}

// placementOrder sorts stream indices for first-fit placement:
// deterministic TCT streams first (ascending period, so tightly repeating
// streams grab the grid early; within a period class, bulkier messages
// first — first-fit decreasing packs fragmented links far better), then
// probabilistic streams grouped by parent in occurrence order so
// consecutive possibilities can stack onto the same slots.
func placementOrder(streams []*model.Stream) []int {
	out := make([]int, len(streams))
	for i := range out {
		out[i] = i
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := streams[out[i]], streams[out[j]]
		if (a.Type == model.StreamProb) != (b.Type == model.StreamProb) {
			return a.Type != model.StreamProb
		}
		if a.Type == model.StreamProb {
			if a.Parent != b.Parent {
				return a.Parent < b.Parent
			}
			return a.OccurrenceTime < b.OccurrenceTime
		}
		if a.Period != b.Period {
			return a.Period < b.Period
		}
		if a.Frames() != b.Frames() {
			return a.Frames() > b.Frames()
		}
		return a.ID < b.ID
	})
	return out
}

// placeAll places the streams order indexes, per-stream falling back from
// spread to ASAP placement before failing. Only a spread attempt can be
// abandoned half-committed, so only then is an undo log kept: for each link
// on that one stream's path, its group count and every group's length,
// truncated on fallback.
func (t *slotTable) placeAll(order []int, spread bool) error {
	var undo []int
	for _, si := range order {
		hops := t.inst.hops[si]
		if spread {
			undo = undo[:0]
			for i := range hops {
				groups := t.placed[hops[i].link]
				undo = append(undo, len(groups))
				for _, g := range groups {
					undo = append(undo, len(g.slots))
				}
			}
		}
		err := t.placeStream(si, spread)
		if err != nil && spread {
			u := undo
			for i := range hops {
				n := u[0]
				groups := t.placed[hops[i].link][:n]
				for gi := range groups {
					groups[gi].slots = groups[gi].slots[:u[1+gi]]
				}
				t.placed[hops[i].link] = groups
				u = u[1+n:]
			}
			err = t.placeStream(si, false)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *slotTable) placeStream(si int, spread bool) error {
	inst, s, hops := t.inst, t.inst.streams[si], t.inst.hops[si]
	period := inst.periodUnits[si]
	for li := range hops {
		h := &hops[li]
		for j := 0; j < h.count; j++ {
			lb := int64(0)
			if li == 0 && j == 0 && s.Type == model.StreamProb {
				lb = inst.otUnits[si]
			}
			if li == 0 && s.Type == model.StreamDet && spread {
				// Stagger streams by a deterministic phase and spread a
				// stream's frames evenly over its period, mimicking the
				// dispersed slot layouts SMT solvers produce.
				lb = max(lb, streamPhase(s.ID, period)+int64(j)*(period/int64(h.count)))
			}
			if j > 0 {
				lb = max(lb, t.vphi[h.base+j-1]+h.frameLen(s, j-1))
			}
			if li > 0 {
				up := &hops[li-1]
				upIdx := upstreamIndex(j, h.count, up.count)
				lb = max(lb, t.vphi[up.base+upIdx]+up.frameLen(s, upIdx)+up.prop)
			}
			v, ok := t.findSlot(h.link, t.frameClass(s, j), lb, h.frameLen(s, j), period)
			if !ok {
				return &PlaceFailure{Stream: s.ID, Frame: j, Link: h.lid,
					Reason: "no free slot"}
			}
			t.commit(s, h, j, v, period)
		}
	}
	return t.checkE2E(si)
}

// PlaceFailure reports which stream the first-fit placer could not fit; it
// unwraps to ErrInfeasible. Joint-routing retries use it to pick the stream
// to reroute.
type PlaceFailure struct {
	// Stream is the failing stream (possibly a possibility or drain
	// stream derived from an ECT).
	Stream model.StreamID
	// Frame is the failing frame index.
	Frame int
	// Link is where placement failed.
	Link model.LinkID
	// Reason is a human-readable cause.
	Reason string
}

// Error renders the failure.
func (e *PlaceFailure) Error() string {
	return fmt.Sprintf("infeasible scheduling problem: placer: stream %q frame %d on %s: %s",
		e.Stream, e.Frame, e.Link, e.Reason)
}

// Unwrap ties the failure to ErrInfeasible.
func (e *PlaceFailure) Unwrap() error { return ErrInfeasible }

// findSlot returns the earliest virtual time v >= lb such that the frame's
// periodic instances (at (v mod period) + n·period) do not overlap any
// reservation on the link its class c may not overlap, and the slot does not
// straddle a period boundary. It gives up after scanning one full period
// without a fit.
func (t *slotTable) findSlot(link int, c slotClass, lb, length, period int64) (int64, bool) {
	v := lb
	for {
		if v-lb > period {
			return 0, false
		}
		off := v % period
		if off+length > period {
			v += period - off // skip to next period start
			continue
		}
		next, _ := t.clearOffsets(link, c, off, length, period)
		if next == off {
			return v, true
		}
		v += next - off
	}
}

// clearOffsets checks a frame of class c at periodic offset off (both the
// frame and every reservation lie inside their periods) against the link's
// groups c may not overlap, and returns the offsets that clear every
// overlapping busy instance: next starts the frame at the latest end among
// them, prev ends it at the earliest start. Both equal off when nothing
// overlaps.
//
// Against a reservation (b, Lb, Q), the start distances b+yQ - (off+xP)
// of all instance pairs are exactly the d ≡ b-off (mod gcd(P, Q)), and a
// pair overlaps iff -Lb < d < length. So the latest end is off+Lb+max d and
// the earliest start off-length+min d, over that residue class in that
// window: no walk over the pairwise hyperperiod.
func (t *slotTable) clearOffsets(link int, c slotClass, off, length, period int64) (next, prev int64) {
	next, prev = off, off
	for gi := range t.placed[link] {
		grp := &t.placed[link][gi]
		if classesCanOverlap(c, grp.class) {
			continue
		}
		for _, ps := range grp.slots {
			g := ps.period
			if g != period {
				g = model.GCD(period, g)
			}
			r := floorMod(ps.offset-off, g)
			dmax := length - 1 - floorMod(length-1-r, g)
			if dmax <= -ps.length {
				continue // no d of the class in (-Lb, length)
			}
			dmin := 1 - ps.length + floorMod(r+ps.length-1, g)
			next = max(next, off+ps.length+dmax)
			prev = min(prev, off-length+dmin)
		}
	}
	return next, prev
}

// floorMod is a mod m in [0, m) for m > 0.
func floorMod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// streamPhase derives a deterministic placement phase in [0, period/2) from
// the stream ID.
func streamPhase(id model.StreamID, period int64) int64 {
	h := uint32(2166136261) // FNV-1a, inlined: hash/fnv allocates per call
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return int64(h) % (period/2 + 1)
}
