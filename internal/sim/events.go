// Package sim is a nanosecond-resolution discrete-event simulator of a TSN
// network: 802.1Qbv switches (eight priority queues per output port, gates
// driven by a Gate Control List, strict-priority transmission selection,
// store-and-forward), end devices that emit time-triggered streams at their
// scheduled offsets and event-triggered streams at stochastic times, links
// with serialization and propagation delay, and an optional 802.1Qav
// credit-based shaper per traffic class.
//
// It substitutes for the paper's FPGA testbed (Sec. V) and the
// NeSTiNg/OMNeT++ simulation (Sec. VI-A): the evaluation metrics — per-flow
// latency and jitter under gating and preemption — are produced by the same
// queueing mechanics the hardware implements.
package sim

import "time"

// evKind selects how dispatch handles an event. The kinds that make up
// nearly every event of a run carry their operand by value; faults, user
// callbacks, source ticks and the TCT cycle tick are rare and stay closures.
type evKind uint8

const (
	evFn      evKind = iota // run fn
	evDeliver               // frame finished crossing the link at route[Hop]
	evWake                  // port runs transmission selection
	evEmit                  // TCT fragment frame is handed to its talker port
)

// event is one scheduled step; key (deterministic mode) and seq break ties
// at equal timestamps.
type event struct {
	at    time.Duration
	key   evKey
	seq   int64
	kind  evKind
	port  *outPort
	frame *Frame
	fn    func()
}

// before is the total order the event loop pops in: (at, key, seq). In the
// default mode every key is zero and the order degenerates to the legacy
// (at, seq) insertion order. In deterministic mode the key is derived from
// the event's content (see evKey), so the order is computable from local
// information alone — the property the sharded engine needs to replay the
// sequential schedule exactly. Because the order is total, any internal
// heap layout pops the same sequence, so the simulation stays
// deterministic either way.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.key.hi != o.key.hi {
		return e.key.hi < o.key.hi
	}
	if e.key.lo != o.key.lo {
		return e.key.lo < o.key.lo
	}
	return e.seq < o.seq
}

// evKey is a content-derived event identity used for tie-breaking at equal
// timestamps in deterministic mode, packed into two words for cheap
// comparison:
//
//	hi = class(8) | link ordinal+1(24) | stream/entity ordinal(32)
//	lo = seq(40) | sub(4) | frag(12) | replica(8)
//
// Classes are ordered so that any event scheduled for the *current* instant
// by a running event always sorts at or after the running event (faults
// come first, then talker emissions, then deliveries, then port wakes).
// This makes the popped order independent of insertion order, which is what
// lets per-shard heaps agree with the global heap.
type evKey struct{ hi, lo uint64 }

// Event classes, in tie-break order at an equal timestamp.
const (
	evClassFault   = 0 // fault injection
	evClassTCT     = 1 // deterministic-stream talker (cycle scheduling + emissions)
	evClassECT     = 2 // event-triggered source occurrence
	evClassBE      = 3 // best-effort emission
	evClassDeliver = 4 // frame arrival after crossing a link
	evClassWake    = 5 // port transmission-selection wake-up
	evClassUser    = 6 // user callbacks (After / recovery hooks)
)

// makeKey packs an event key. link is a port ordinal or -1 for "no port";
// widths are masked defensively so oversized values degrade to coarser
// (but still deterministic) tie-breaking instead of corrupting neighbours.
func makeKey(class int, link int32, entity int32, seq int64, sub, frag, replica int) evKey {
	return evKey{
		hi: uint64(class)<<56 |
			(uint64(uint32(link+1))&0xFFFFFF)<<32 |
			uint64(uint32(entity)),
		lo: (uint64(seq)&0xFFFFFFFFFF)<<24 |
			(uint64(sub)&0xF)<<20 |
			(uint64(frag)&0xFFF)<<8 |
			uint64(replica)&0xFF,
	}
}

// eventHeap is a hand-specialized binary min-heap of events by value. The
// event loop is the simulator's hottest path; compared to container/heap
// over []*event this drops the per-event allocation and the
// interface-dispatched Less/Swap calls, and the sift routines move the
// hole instead of swapping (one copy per level instead of three).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

// push inserts e, sifting the hole up from the new leaf.
func (h *eventHeap) push(e event) {
	a := append(*h, event{})
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
	*h = a
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	a := *h
	min := a[0]
	last := a[len(a)-1]
	a[len(a)-1] = event{}
	a = a[:len(a)-1]
	if n := len(a); n > 0 {
		// Sift the former last leaf down from the root, moving the hole.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && a[r].before(&a[c]) {
				c = r
			}
			if !a[c].before(&last) {
				break
			}
			a[i] = a[c]
			i = c
		}
		a[i] = last
	}
	*h = a
	return min
}
