package core

import (
	"errors"
	"fmt"

	"etsn/internal/model"
)

// ErrNeedsReplan is returned by Admit when the requested change cannot be
// made without moving already-deployed slots.
var ErrNeedsReplan = errors.New("admission requires a full re-plan")

// Admit performs online admission (the paper's Sec. VII-C future-work
// direction): it schedules additional streams into an existing result
// without moving any already-deployed slot, so running switches only
// receive GCL additions.
//
// Supported additions:
//   - new ECT streams (their possibilities ride existing shared slots plus
//     freshly placed superposition slots, and new drain capacity is
//     reserved for them), and
//   - new non-sharing TCT streams (placed into residual space).
//
// Adding a *sharing* TCT stream changes the reservation structure of the
// deployed schedule, and ECT admission in strict per-stream reservation
// mode would grow existing streams' frame sets — both return
// ErrNeedsReplan.
func Admit(orig *Problem, prev *Result, newTCT []*model.Stream, newECT []*model.ECT) (*Result, error) {
	if prev == nil || prev.Schedule == nil {
		return nil, fmt.Errorf("%w: nil previous result", ErrInvalidProblem)
	}
	if len(newTCT) == 0 && len(newECT) == 0 {
		return prev, nil
	}
	for _, s := range newTCT {
		if s.Share {
			return nil, fmt.Errorf("%w: new sharing TCT stream %q changes deployed reservations",
				ErrNeedsReplan, s.ID)
		}
	}
	opts := orig.Opts.withDefaults()
	if len(newECT) > 0 && !opts.SharedReserves && !opts.DisablePrudentReservation {
		return nil, fmt.Errorf("%w: ECT admission with per-stream reservations grows existing frame sets",
			ErrNeedsReplan)
	}

	combined := &Problem{
		Network: orig.Network,
		TCT:     append(append([]*model.Stream(nil), orig.TCT...), newTCT...),
		ECT:     append(append([]*model.ECT(nil), orig.ECT...), newECT...),
		Opts:    opts,
	}
	inst, err := buildInstance(combined, opts)
	if err != nil {
		return nil, err
	}

	// Seed the slot table with the deployed slots, frozen in place.
	t := newSlotTable(inst)
	streamIdx := make(map[model.StreamID]int, len(inst.streams))
	for i, s := range inst.streams {
		streamIdx[s.ID] = i
	}
	frozen := make([]bool, len(inst.streams))
	for id := range prev.Schedule.Streams {
		si, ok := streamIdx[id]
		if !ok {
			return nil, fmt.Errorf("%w: deployed stream %q absent from the original problem",
				ErrInvalidProblem, id)
		}
		frozen[si] = true
	}
	// deployed counts each hop's deployed slots, by hop.base.
	deployed := make([]int, inst.nFrames)
	for _, lid := range prev.Schedule.Links() {
		for _, fs := range prev.Schedule.SlotsOn(lid) {
			si, ok := streamIdx[fs.Stream]
			if !ok {
				return nil, fmt.Errorf("%w: deployed slot of unknown stream %q", ErrInvalidProblem, fs.Stream)
			}
			// The slot table's overlap test needs every slot inside its
			// period.
			if fs.Offset < 0 || fs.Offset+fs.Length > fs.Period {
				return nil, fmt.Errorf("%w: deployed slot %d of stream %q on %s at [%d,%d) straddles its period %d",
					ErrInvalidProblem, fs.Index, fs.Stream, lid, fs.Offset, fs.End(), fs.Period)
			}
			// A deployed slot off its stream's path, or beyond the frame
			// count the combined instance gives that hop, means the
			// additions changed the reservation structure.
			h := inst.hopOn(si, lid)
			if h == nil || fs.Index < 0 || fs.Index >= h.count {
				return nil, fmt.Errorf("%w: deployed slot %d of stream %q on %s has no place in the combined instance",
					ErrNeedsReplan, fs.Index, fs.Stream, lid)
			}
			deployed[h.base]++
			t.vphi[h.base+fs.Index] = fs.VirtualOffset()
			t.add(h.link, classOf(inst.streams[si], fs.Reserve, opts.SharedReserves),
				placedSlot{offset: fs.Offset, length: fs.Length, period: fs.Period})
		}
	}
	// Deployed frame counts must match the combined instance (they do, as
	// long as the additions did not change reservation structure).
	for si, s := range inst.streams {
		if !frozen[si] {
			continue
		}
		for _, h := range inst.hops[si] {
			if got := deployed[h.base]; got != h.count {
				return nil, fmt.Errorf("%w: stream %q needs %d slots on %s but %d are deployed",
					ErrNeedsReplan, s.ID, h.count, h.lid, got)
			}
		}
	}

	// Place only the new streams, in the standard order.
	var fresh []int
	for _, si := range placementOrder(inst.streams) {
		if !frozen[si] {
			fresh = append(fresh, si)
		}
	}
	if err := t.placeAll(fresh, opts.SpreadFrames); err != nil {
		return nil, err
	}
	return t.result(BackendPlacer), nil
}

// hopOn finds stream si's hop on a link, or nil when its path avoids it.
func (inst *instance) hopOn(si int, lid model.LinkID) *hop {
	for i := range inst.hops[si] {
		if inst.hops[si][i].lid == lid {
			return &inst.hops[si][i]
		}
	}
	return nil
}

// frameKey identifies one frame of a schedule.
type frameKey struct {
	stream model.StreamID
	link   model.LinkID
	index  int
}

// SlotsUnchanged reports whether every slot of prev appears identically in
// next (the stability property online admission guarantees).
func SlotsUnchanged(prev, next *model.Schedule) bool {
	for _, lid := range prev.Links() {
		nextSlots := make(map[frameKey]model.FrameSlot)
		for _, fs := range next.SlotsOn(lid) {
			nextSlots[frameKey{stream: fs.Stream, link: lid, index: fs.Index}] = fs
		}
		for _, fs := range prev.SlotsOn(lid) {
			got, ok := nextSlots[frameKey{stream: fs.Stream, link: lid, index: fs.Index}]
			if !ok || got != fs {
				return false
			}
		}
	}
	return true
}
