package core

import (
	"context"
	"fmt"

	"etsn/internal/model"
)

// solveGreedy schedules the instance with the greedy as-late-as-possible
// placer: streams are taken in the same deterministic order as the
// first-fit placer, but each stream's frames are committed in *reverse*
// path and index order, pushed as close to their deadlines as the
// already-committed reservations allow. Packing against the deadline leaves
// the front of every period free, which is exactly where later
// (tighter-period) streams and event possibilities need room; the survey
// literature reports ALAP variants closing instances first-fit ASAP cannot.
// Like the first-fit placer it is sound but incomplete: failures are
// give-ups, not infeasibility proofs.
func solveGreedy(ctx context.Context, inst *instance) (*Result, error) {
	sp := inst.opts.Phases.Begin("place-alap")
	defer sp.End()
	t := newSlotTable(inst)
	mins := make([]int64, inst.nFrames)
	for _, si := range placementOrder(inst.streams) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: greedy: %v", ErrBudget, err)
		}
		if err := t.placeStreamLatest(si, mins); err != nil {
			return nil, err
		}
	}
	return t.result(BackendGreedy), nil
}

// placeStreamLatest places stream si; mins is scratch indexed like vphi.
func (t *slotTable) placeStreamLatest(si int, mins []int64) error {
	inst, s, hops := t.inst, t.inst.streams[si], t.inst.hops[si]
	period := inst.periodUnits[si]
	chainMins(inst, si, mins)
	// The deadline anchor: a probabilistic stream must deliver within its
	// budget measured from the floored occurrence time; a deterministic
	// stream's budget is anchored at its earliest possible start, so the
	// end-to-end check below can only fail when conflicts push the first
	// frame earlier than that chain minimum.
	var deadline int64
	if s.Type == model.StreamProb {
		deadline = inst.otFloorUnits[si] + inst.e2eUnits[si]
	} else {
		deadline = mins[hops[0].base] + inst.e2eUnits[si]
	}
	for li := len(hops) - 1; li >= 0; li-- {
		h := &hops[li]
		for j := h.count - 1; j >= 0; j-- {
			l := h.frameLen(s, j)
			ub := deadline - l
			// (3) sequencing against the next frame on the same link.
			if j < h.count-1 {
				ub = min(ub, t.vphi[h.base+j+1]-l)
			}
			// (7) adjacency against every downstream frame this one feeds
			// (prudent-reservation index shift, same mapping as forward).
			if li < len(hops)-1 {
				down := &hops[li+1]
				for dj := 0; dj < down.count; dj++ {
					if upstreamIndex(dj, down.count, h.count) == j {
						ub = min(ub, t.vphi[down.base+dj]-l-h.prop)
					}
				}
			}
			lb := mins[h.base+j]
			v, ok := t.findSlotLatest(h.link, t.frameClass(s, j), lb, ub, l, period)
			if !ok {
				return &PlaceFailure{Stream: s.ID, Frame: j, Link: h.lid,
					Reason: "no free slot below deadline"}
			}
			t.commit(s, h, j, v, period)
		}
	}
	// Conflicts may have pushed the first frame below its chain minimum,
	// stretching the span past the anchored deadline.
	return t.checkE2E(si)
}

// findSlotLatest returns the latest virtual time v in [lb, ub] such that
// the frame's periodic instances do not overlap any reservation on the
// link its class c may not overlap, and the slot does not straddle a period
// boundary. It scans downward and gives up after a full period without a
// fit (mirroring findSlot's upward scan).
func (t *slotTable) findSlotLatest(link int, c slotClass, lb, ub, length, period int64) (int64, bool) {
	v := ub
	for {
		if v < lb || ub-v > period {
			return 0, false
		}
		off := v % period
		if off+length > period {
			// Straddles the boundary: drop to the latest fit in this epoch.
			v -= off - (period - length)
			continue
		}
		_, prev := t.clearOffsets(link, c, off, length, period)
		if prev == off {
			return v, true
		}
		// prev may be negative, pushing v into the previous epoch; the next
		// iteration re-derives the offset (and re-checks straddling).
		v -= off - prev
	}
}

// chainMins computes, for every frame of stream si, the earliest virtual
// start the stream's *own* constraints allow (occurrence time, same-link
// sequencing, adjacent-link arrival), ignoring other streams, into
// mins[hop.base+j]. These are hard lower bounds on any schedule, used by the
// ALAP placer as scan floors.
func chainMins(inst *instance, si int, mins []int64) {
	s, hops := inst.streams[si], inst.hops[si]
	for li := range hops {
		h := &hops[li]
		for j := 0; j < h.count; j++ {
			lb := int64(0)
			if li == 0 && j == 0 && s.Type == model.StreamProb {
				lb = inst.otUnits[si]
			}
			if j > 0 {
				lb = max(lb, mins[h.base+j-1]+h.frameLen(s, j-1))
			}
			if li > 0 {
				up := &hops[li-1]
				upIdx := upstreamIndex(j, h.count, up.count)
				lb = max(lb, mins[up.base+upIdx]+up.frameLen(s, upIdx)+up.prop)
			}
			mins[h.base+j] = lb
		}
	}
}
