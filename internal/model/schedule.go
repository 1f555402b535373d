package model

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"
)

// FrameSlot is one scheduled time-slot for one frame on one link: the unit
// the SMT formulation assigns a start time φ to. Offsets, lengths, and
// periods are in the link's time units.
type FrameSlot struct {
	// Stream is the stream this slot belongs to.
	Stream StreamID
	// Link is the directed link the slot reserves time on.
	Link LinkID
	// Index is the frame index j within F_{s,link} (0-based), including
	// frames added by prudent reservation.
	Index int
	// Offset is the scheduled start time φ within the period, in link
	// time units.
	Offset int64
	// Length is the transmission time L of the frame, in link time units.
	Length int64
	// Period is the stream period (or minimum interevent time) T, in link
	// time units.
	Period int64
	// Epoch is the period shift of the slot relative to the stream's
	// first-link first frame: a slot with Epoch k repeats at
	// Offset + (n+k)·Period. The on-wire periodic pattern depends only on
	// Offset; Epoch carries pipeline depth for latency analysis when a
	// multi-hop chain wraps past a period boundary.
	Epoch int64
	// Priority is the slot's traffic class.
	Priority int
	// Shared marks a slot of a TCT stream that may be preempted by ECT.
	Shared bool
	// Reserve marks an extra slot added by prudent reservation (Alg. 1):
	// drain capacity for frames displaced by ECT rather than a frame the
	// talker emits every period.
	Reserve bool
	// Prob marks a slot of a probabilistic stream ("superposition" slots
	// of the same parent may overlap).
	Prob bool
	// Parent is the originating ECT stream for probabilistic slots.
	Parent StreamID
}

// End returns Offset+Length: the first time unit after the slot.
func (fs *FrameSlot) End() int64 { return fs.Offset + fs.Length }

// VirtualOffset returns the slot start on the stream's unrolled timeline:
// Offset + Epoch·Period.
func (fs *FrameSlot) VirtualOffset() int64 { return fs.Offset + fs.Epoch*fs.Period }

// VirtualEnd returns the slot end on the stream's unrolled timeline.
func (fs *FrameSlot) VirtualEnd() int64 { return fs.VirtualOffset() + fs.Length }

// Overlaps reports whether two slots on the same link overlap in time in any
// pair of period instances within their joint hyperperiod.
func (fs *FrameSlot) Overlaps(other *FrameSlot) bool {
	if fs.Link != other.Link {
		return false
	}
	hyper := LCM(fs.Period, other.Period)
	for x := int64(0); x < hyper/fs.Period; x++ {
		a0 := fs.Offset + x*fs.Period
		a1 := a0 + fs.Length
		for y := int64(0); y < hyper/other.Period; y++ {
			b0 := other.Offset + y*other.Period
			b1 := b0 + other.Length
			if a0 < b1 && b0 < a1 {
				return true
			}
		}
	}
	return false
}

// Schedule is the output of a scheduler: for every link, the ordered set of
// frame slots, plus the stream table the slots refer to.
type Schedule struct {
	// Hyperperiod is the cycle after which the schedule repeats.
	Hyperperiod time.Duration
	// Streams maps stream IDs to their definitions (TCT streams and
	// probabilistic streams).
	Streams map[StreamID]*Stream
	// slots holds per-link slots sorted by (Offset, Stream, Index).
	slots map[LinkID][]FrameSlot
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule {
	return &Schedule{
		Streams: make(map[StreamID]*Stream),
		slots:   make(map[LinkID][]FrameSlot),
	}
}

// AddStream registers a stream definition.
func (s *Schedule) AddStream(st *Stream) { s.Streams[st.ID] = st }

// AddSlot appends a frame slot; call Sort before reading slots back.
func (s *Schedule) AddSlot(fs FrameSlot) { s.slots[fs.Link] = append(s.slots[fs.Link], fs) }

// Sort orders every link's slots by offset (ties by stream then index).
// It sorts small (Offset, position) keys and then permutes each link's
// slots once, in place: sorting the slots themselves would move every
// FrameSlot value O(log n) times. (Stream, Index) is unique per link, so
// the order is total and does not depend on the sort algorithm.
func (s *Schedule) Sort() {
	var keys []slotKey
	for _, slots := range s.slots {
		keys = keys[:0]
		for i := range slots {
			keys = append(keys, slotKey{offset: slots[i].Offset, pos: i})
		}
		slices.SortFunc(keys, func(a, b slotKey) int {
			if c := cmp.Compare(a.offset, b.offset); c != 0 {
				return c
			}
			x, y := &slots[a.pos], &slots[b.pos]
			if c := cmp.Compare(x.Stream, y.Stream); c != 0 {
				return c
			}
			return cmp.Compare(x.Index, y.Index)
		})
		permute(slots, keys)
	}
}

// slotKey is one slot's sort key: its offset and its position in the
// link's slot slice.
type slotKey struct {
	offset int64
	pos    int
}

// permute reorders slots in place so that slot i becomes the one keys[i]
// points at, moving each value once per cycle of the permutation. It
// consumes keys: every visited pos is overwritten with its own index.
func permute(slots []FrameSlot, keys []slotKey) {
	for i := range keys {
		if keys[i].pos == i {
			continue
		}
		tmp := slots[i]
		j := i
		for {
			k := keys[j].pos
			keys[j].pos = j
			if k == i {
				slots[j] = tmp
				break
			}
			slots[j] = slots[k]
			j = k
		}
	}
}

// SlotsOn returns the slots scheduled on a link (sorted if Sort was called).
// The returned slice is owned by the schedule; callers must not modify it.
func (s *Schedule) SlotsOn(link LinkID) []FrameSlot { return s.slots[link] }

// StreamSlots returns the slots of one stream on one link, ordered by Index.
func (s *Schedule) StreamSlots(id StreamID, link LinkID) []FrameSlot {
	var out []FrameSlot
	for _, fs := range s.slots[link] {
		if fs.Stream == id {
			out = append(out, fs)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Links returns the links that carry at least one slot, sorted.
func (s *Schedule) Links() []LinkID {
	out := make([]LinkID, 0, len(s.slots))
	for id := range s.slots {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// NumSlots returns the total number of frame slots across all links.
func (s *Schedule) NumSlots() int {
	total := 0
	for _, slots := range s.slots {
		total += len(slots)
	}
	return total
}

// SetStreamPriority rewrites the traffic class of a stream and all of its
// slots (used by baseline planners to move a scheduled stream into a
// different runtime queue).
func (s *Schedule) SetStreamPriority(id StreamID, priority int) {
	if st, ok := s.Streams[id]; ok {
		st.Priority = priority
	}
	for _, slots := range s.slots {
		for i := range slots {
			if slots[i].Stream == id {
				slots[i].Priority = priority
			}
		}
	}
}

// RemoveStream deletes a stream's definition and every slot it holds on any
// link (recovery replanning prunes failed streams before re-admission).
// Links left with no slots are removed from the slot table.
func (s *Schedule) RemoveStream(id StreamID) {
	delete(s.Streams, id)
	for link, slots := range s.slots {
		kept := slots[:0]
		for _, fs := range slots {
			if fs.Stream != id {
				kept = append(kept, fs)
			}
		}
		if len(kept) == 0 {
			delete(s.slots, link)
		} else {
			s.slots[link] = kept
		}
	}
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	out := NewSchedule()
	out.Hyperperiod = s.Hyperperiod
	for id, st := range s.Streams {
		cp := *st
		cp.Path = append([]LinkID(nil), st.Path...)
		out.Streams[id] = &cp
	}
	for link, slots := range s.slots {
		out.slots[link] = append([]FrameSlot(nil), slots...)
	}
	return out
}

// String summarizes the schedule.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule{hyperperiod=%v streams=%d slots=%d links=%d}",
		s.Hyperperiod, len(s.Streams), s.NumSlots(), len(s.slots))
}
