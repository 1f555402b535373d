package core

import (
	"fmt"
	"sort"

	"etsn/internal/model"
)

// placedSlot is a committed reservation used for conflict checks during
// placement. offset is in the periodic (mod-period) domain.
type placedSlot struct {
	offset  int64
	length  int64
	period  int64
	stream  *model.Stream
	reserve bool
}

// slotTable is the placement state the first-fit placer, the ALAP placer
// and Admit share: the reservations committed on each link, by dense link
// index (instance.linkIdx), and every frame's virtual start time, by
// hop.base + frame index. Both are sized once from the instance's layout.
type slotTable struct {
	inst   *instance
	placed [][]placedSlot
	vphi   []int64
}

func newSlotTable(inst *instance) *slotTable {
	return &slotTable{
		inst:   inst,
		placed: make([][]placedSlot, len(inst.linkIdx)),
		vphi:   make([]int64, inst.nFrames),
	}
}

// commit reserves frame j of stream s on hop h at virtual time v.
func (t *slotTable) commit(s *model.Stream, h *hop, j int, v, period int64) {
	t.vphi[h.base+j] = v
	t.placed[h.link] = append(t.placed[h.link], placedSlot{
		offset: v % period, length: h.frameLen(s, j), period: period,
		stream: s, reserve: t.inst.isReserveIndex(s, j),
	})
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
// abandoned half-committed, so only then is an undo log kept: the slot
// counts of the links on that one stream's path, truncated on fallback.
func (t *slotTable) placeAll(order []int, spread bool) error {
	var undo []int
	for _, si := range order {
		hops := t.inst.hops[si]
		if spread {
			undo = undo[:0]
			for i := range hops {
				undo = append(undo, len(t.placed[hops[i].link]))
			}
		}
		err := t.placeStream(si, spread)
		if err != nil && spread {
			for i := range hops {
				t.placed[hops[i].link] = t.placed[hops[i].link][:undo[i]]
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
			v, ok := t.findSlot(h.link, s, inst.isReserveIndex(s, j), lb, h.frameLen(s, j), period)
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
// incompatible reservation on the link and the slot does not straddle a
// period boundary. It gives up after scanning one full period without a fit.
func (t *slotTable) findSlot(link int, s *model.Stream, reserve bool, lb, length, period int64) (int64, bool) {
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
		next, _ := t.clearOffsets(link, s, reserve, off, length, period)
		if next == off {
			return v, true
		}
		v += next - off
	}
}

// clearOffsets scans the link's reservations incompatible with a frame of s at
// periodic offset off, over the pairwise hyperperiod, and returns the
// offsets that clear every overlapping busy instance: next starts the frame
// at the latest end among them, prev ends it at the earliest start. Both
// equal off when nothing overlaps.
func (t *slotTable) clearOffsets(link int, s *model.Stream, reserve bool, off, length, period int64) (next, prev int64) {
	next, prev = off, off
	for _, ps := range t.placed[link] {
		if slotsCanOverlap(s, ps.stream, reserve, ps.reserve, t.inst.opts.SharedReserves) {
			continue
		}
		hyper := model.LCM(period, ps.period)
		nx, ny := hyper/period, hyper/ps.period
		for x := int64(0); x < nx; x++ {
			a0 := off + x*period
			a1 := a0 + length
			for y := int64(0); y < ny; y++ {
				b0 := ps.offset + y*ps.period
				be := b0 + ps.length
				if a0 < be && b0 < a1 {
					next = max(next, be-x*period)
					prev = min(prev, b0-x*period-length)
				}
			}
		}
	}
	return next, prev
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
