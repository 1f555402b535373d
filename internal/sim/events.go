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

// evKind selects how dispatch handles an event and which per-run table its
// operand indexes. Every kind but evFn names a table entry the run built
// or appends to; only faults and After callbacks are closures.
type evKind uint8

const (
	evFn      evKind = iota // run the closure in fns[op]
	evDeliver               // frameTab[op] finished crossing the link at route[Hop]
	evWake                  // portTab[op] runs transmission selection
	evEmit                  // TCT fragment frameTab[op] is handed to its talker port
	evTCT                   // talker loop tct[op] starts its next cycle
	evBE                    // best-effort flow be[op] emits its next frame
	evECT                   // event source ect[op] fires its next event
)

// event is one scheduled step; seq breaks ties at equal timestamps. It
// holds no pointers: the heap's array is never scanned by the garbage
// collector and a sift moves 24 bytes per level without write barriers.
type event struct {
	at   time.Duration
	seq  int64
	op   uint32
	kind evKind
}

// before is the total order the event loop pops in: (at, seq), time then
// insertion order. Because the order is total, any internal heap layout
// pops the same sequence, so a run is a function of its config and seed.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a hand-specialized binary min-heap of events by value. The
// event loop is the simulator's hottest path; compared to container/heap
// over []*event this drops the per-event allocation and the
// interface-dispatched Less/Swap calls, and the sift routines move the
// hole instead of swapping (one copy per level instead of three). A 4-ary
// heap over the same events measured slower at the ~75 entries a run keeps
// pending (DESIGN.md §6).
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
