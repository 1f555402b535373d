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

// event is one scheduled step; seq breaks ties at equal timestamps.
type event struct {
	at    time.Duration
	seq   int64
	kind  evKind
	port  *outPort
	frame *Frame
	fn    func()
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
