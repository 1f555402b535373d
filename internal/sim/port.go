package sim

import (
	"slices"
	"time"

	"etsn/internal/gcl"
	"etsn/internal/model"
	"etsn/internal/obs"
)

// gateWin is one open interval of a priority's gate, in time relative to a
// cycle start. Windows are precomputed over two cycles so queries never
// wrap.
type gateWin struct {
	start time.Duration
	end   time.Duration
}

// queue is one traffic class's FIFO. A pop clears its slot and advances
// head instead of reslicing, so a standing queue's appends reuse the slots
// its pops freed rather than regrowing the array.
type queue struct {
	buf  []*Frame
	head int
}

func (q *queue) len() int { return len(q.buf) - q.head }

// frames returns the queued frames, head first.
func (q *queue) frames() []*Frame { return q.buf[q.head:] }

// push appends f, first sliding the queue to the front of its array when
// the array is full and at least half of it is popped slots.
func (q *queue) push(f *Frame) {
	if len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, f)
}

// pop removes the head frame, leaving its slot nil so the array does not
// keep the frame reachable; a queue that empties keeps its array.
func (q *queue) pop() {
	q.buf[q.head] = nil
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// outPort is the output port feeding one directed link: eight FIFO priority
// queues, a Qbv gate program, strict-priority transmission selection with a
// length-aware gate check (a frame starts only if its gate stays open for
// the whole transmission), and optional per-class credit-based shapers.
type outPort struct {
	sim     *Simulator
	idx     uint32 // place in portTab, the operand of the port's wakes
	link    *model.Link
	program *gcl.PortGCL
	queues  [model.NumPriorities]queue
	busy    time.Duration // transmitting until this instant
	shapers map[int]*shaper
	drops   int
	// windows caches the gate program per priority, merged and unrolled
	// over two cycles, so transmission selection is a binary search
	// instead of an entry scan. oneWin keeps the single-cycle merged
	// windows and openPerCycle their total open time, for the attribution
	// layer's closed-gate arithmetic.
	windows      [model.NumPriorities][]gateWin
	oneWin       [model.NumPriorities][]gateWin
	openPerCycle [model.NumPriorities]time.Duration
	// curTxEnd/curTxPri describe the most recent transmission so waits can
	// be attributed to the class that occupied the port.
	curTxEnd time.Duration
	curTxPri int
	// wakeAt is the instant scheduleWake last armed; pend lists the instants
	// this port has a wake-up on the event heap for, one each; doneSeq is the
	// place in the event order of the current transmission's completion wake.
	wakeAt  time.Duration
	pend    []time.Duration
	doneSeq int64
	// down marks a failed link: arrivals drop until the link comes back.
	down bool
	// darkUntil holds the end of a switch-reboot dark window.
	darkUntil time.Duration
	// burstLoss/burstUntil describe a transient loss burst overriding the
	// configured LinkLoss while it lasts.
	burstLoss  float64
	burstUntil time.Duration
	// depth is the total number of frames across all priority queues;
	// mQueueHWM/mGateOpens are per-link instruments (nil when obs is off).
	depth      int
	mQueueHWM  *obs.Gauge
	mGateOpens *obs.Counter
}

// unavailable reports whether the port cannot accept or send frames now
// (failed link or rebooting switch).
func (p *outPort) unavailable() bool {
	return p.down || p.sim.now < p.darkUntil
}

// flush drops every queued frame — a link failure or switch reboot loses
// whatever was waiting in the egress queues.
func (p *outPort) flush() {
	for pri := range p.queues {
		q := &p.queues[pri]
		for _, f := range q.frames() {
			p.drops++
			p.sim.mDropsFlush.Inc()
			p.sim.results.recordDrop(f.Stream, p.sim.now)
			p.sim.trace.emit(p.sim.now, "drop", f, p.link.ID())
			p.sim.release(f)
		}
		clear(q.buf)
		q.buf, q.head = q.buf[:0], 0
	}
	p.depth = 0
}

// buildWindows precomputes per-priority open windows from the gate program.
func (p *outPort) buildWindows() {
	c := p.program.Cycle
	for pri := 0; pri < model.NumPriorities; pri++ {
		var one []gateWin
		var acc time.Duration
		for _, e := range p.program.Entries {
			if e.Gates.Open(pri) {
				if n := len(one); n > 0 && one[n-1].end == acc {
					one[n-1].end = acc + e.Duration
				} else {
					one = append(one, gateWin{start: acc, end: acc + e.Duration})
				}
			}
			acc += e.Duration
		}
		p.oneWin[pri] = one
		p.openPerCycle[pri] = 0
		for _, w := range one {
			p.openPerCycle[pri] += w.end - w.start
		}
		if len(one) == 0 {
			p.windows[pri] = nil
			continue
		}
		// Unroll to two cycles and merge across the boundary.
		two := make([]gateWin, 0, 2*len(one))
		two = append(two, one...)
		for _, w := range one {
			w.start += c
			w.end += c
			if n := len(two); n > 0 && two[n-1].end == w.start {
				two[n-1].end = w.end
			} else {
				two = append(two, w)
			}
		}
		p.windows[pri] = two
	}
}

// nextOpen returns the earliest instant >= t (node-local time) at which the
// priority's gate stays open for at least need, using the precomputed
// windows.
func (p *outPort) nextOpen(t time.Duration, pri int, need time.Duration) (time.Duration, bool) {
	ws := p.windows[pri]
	if len(ws) == 0 {
		return 0, false
	}
	c := p.program.Cycle
	base := t - t%c
	off := t % c
	// Binary search for the first window ending after off.
	i, hi := 0, len(ws)
	for i < hi {
		m := int(uint(i+hi) >> 1)
		if ws[m].end > off {
			hi = m
		} else {
			i = m + 1
		}
	}
	for ; i < len(ws); i++ {
		start := ws[i].start
		if start < off {
			start = off
		}
		if ws[i].end-start >= need {
			return base + start, true
		}
	}
	return 0, false
}

// openBefore returns the total time the priority's gate is open in the
// node-local interval [0, t).
func (p *outPort) openBefore(pri int, t time.Duration) time.Duration {
	if t <= 0 {
		return 0
	}
	c := p.program.Cycle
	open := time.Duration(t/c) * p.openPerCycle[pri]
	rem := t % c
	for _, w := range p.oneWin[pri] {
		if w.start >= rem {
			break
		}
		end := w.end
		if end > rem {
			end = rem
		}
		open += end - w.start
	}
	return open
}

// closedDuring returns the closed-gate time for the priority over the
// node-local interval [a, b).
func (p *outPort) closedDuring(pri int, a, b time.Duration) time.Duration {
	if b <= a {
		return 0
	}
	closed := (b - a) - (p.openBefore(pri, b) - p.openBefore(pri, a))
	if closed < 0 {
		return 0
	}
	return closed
}

// chargeWait attributes a queued frame's unaccounted wait [acct, until):
// first the tail of the most recent transmission (preemption when the
// transmitting frame crossed the ECT class boundary, queueing otherwise),
// then idle time split into gate-closed versus queue wait by the gate
// program. Exactly until-acct is charged, so phases sum to the sojourn.
func (p *outPort) chargeWait(f *Frame, until time.Duration) {
	a := f.attrib
	from := a.acct
	if from >= until {
		return
	}
	if p.curTxEnd > from {
		end := p.curTxEnd
		if end > until {
			end = until
		}
		a.addWait(p.waitCause(p.curTxPri, f.Priority), end-from)
		from = end
	}
	if from < until {
		skew := p.localNow() - p.sim.now
		closed := p.closedDuring(f.Priority, from+skew, until+skew)
		if closed > until-from {
			closed = until - from
		}
		a.addWait(PhaseGate, closed)
		a.addWait(PhaseQueue, until-from-closed)
	}
	a.acct = until
}

// waitCause classifies time spent waiting out a transmission: crossing
// the ECT class boundary is preemption delay, same-side blocking is
// ordinary queueing.
func (p *outPort) waitCause(txPri, waitPri int) Phase {
	if p.sim.ectClass[txPri] != p.sim.ectClass[waitPri] {
		return PhasePreempt
	}
	return PhaseQueue
}

// enqueue appends a frame to its priority queue and triggers selection.
// Under 802.1Qch the frame joins whichever of the two alternating classes
// is receiving in the current cycle.
func (p *outPort) enqueue(f *Frame) {
	if p.unavailable() {
		// A dead link or rebooting switch discards arrivals immediately.
		p.drops++
		p.sim.mDropsDown.Inc()
		p.sim.results.recordDrop(f.Stream, p.sim.now)
		p.sim.trace.emit(p.sim.now, "drop", f, p.link.ID())
		p.sim.release(f)
		return
	}
	if c := p.sim.cfg.CQF; c != nil && (f.Priority == c.QueueA || f.Priority == c.QueueB) {
		f.Priority = c.receiveQueue(p.localNow())
	}
	p.sim.trace.emit(p.sim.now, "enqueue", f, p.link.ID())
	f.attrib.beginHop(p.link.ID(), p.sim.now)
	p.queues[f.Priority].push(f)
	p.depth++
	p.mQueueHWM.Max(int64(p.depth))
	p.trySend()
}

// localNow converts simulation time to the port's node-local clock.
func (p *outPort) localNow() time.Duration {
	return p.sim.localTime(p.link.From, p.sim.now)
}

// trySend runs 802.1Qbv transmission selection: among non-empty queues whose
// gate is open now and stays open long enough for the head frame, pick the
// highest priority (subject to shaper eligibility) and transmit. When
// nothing is eligible, a wake-up is scheduled at the earliest instant any
// queue could become eligible.
func (p *outPort) trySend() {
	now := p.sim.now
	if p.down {
		return
	}
	if now < p.darkUntil {
		p.scheduleWake(p.darkUntil)
		return
	}
	if p.busy > now {
		p.pushWake(p.busy, p.doneSeq) // the completion wake, if transmit left it out
		p.scheduleWake(p.busy)
		return
	}
	local := p.localNow()
	skew := local - now
	var wake time.Duration = -1
	for pri := model.NumPriorities - 1; pri >= 0; pri-- {
		q := &p.queues[pri]
		if q.len() == 0 {
			continue
		}
		head := q.buf[q.head]
		tx := p.link.TxTime(head.PayloadBytes)
		at, ok := p.nextOpen(local, pri, tx)
		if !ok {
			// The gate never opens wide enough for this frame: it can
			// never be transmitted. Drop it so the queue does not jam.
			p.popHead(pri)
			p.drops++
			p.sim.mDropsJam.Inc()
			p.sim.results.recordDrop(head.Stream, now)
			p.sim.trace.emit(now, "drop", head, p.link.ID())
			p.sim.release(head)
			p.pushWake(now, p.sim.nextSeq())
			return
		}
		sh := p.shapers[pri]
		if sh != nil {
			sh.observe(now, true)
		}
		if at == local && (sh == nil || sh.eligible()) {
			p.transmit(head, pri, tx)
			return
		}
		cand := at - skew // convert node-local opening back to sim time
		if sh != nil && at == local && !sh.eligible() {
			cand = now + sh.readyAfter()
		}
		if cand > now && (wake < 0 || cand < wake) {
			wake = cand
		}
	}
	if wake >= 0 {
		p.scheduleWake(wake)
	}
}

// scheduleWake arms a wake-up at the given time unless an earlier (or
// equal) future wake-up is already pending.
func (p *outPort) scheduleWake(at time.Duration) {
	if p.wakeAt > p.sim.now && p.wakeAt <= at {
		return
	}
	p.wakeAt = at
	p.pushWake(at, p.sim.nextSeq())
}

// pushWake puts a wake-up on the event heap unless one is already there for
// that instant: a second trySend at one instant finds nothing left to do.
func (p *outPort) pushWake(at time.Duration, seq int64) {
	if slices.Contains(p.pend, at) {
		return
	}
	p.pend = append(p.pend, at)
	p.sim.events.push(event{at: at, seq: seq, op: p.idx, kind: evWake})
}

// wake handles the port's wake-up event for the current instant.
func (p *outPort) wake() {
	if i := slices.Index(p.pend, p.sim.now); i >= 0 {
		p.pend = slices.Delete(p.pend, i, i+1)
	}
	p.trySend()
}

// popHead removes the head frame of a priority queue.
func (p *outPort) popHead(pri int) {
	p.queues[pri].pop()
	p.depth--
}

// transmit sends the head frame of the given queue.
func (p *outPort) transmit(f *Frame, pri int, tx time.Duration) {
	now := p.sim.now
	p.popHead(pri)
	p.mGateOpens.Inc()
	if sh := p.shapers[pri]; sh != nil {
		sh.onTransmit(now, tx)
	}
	if p.sim.attribOn {
		// Settle every attributed frame's wait up to now (against the
		// previous transmission's tail and the gate program), then charge
		// the frames left behind for this transmission.
		if f.attrib != nil {
			p.chargeWait(f, now)
			f.attrib.cur.StartNs = int64(now)
			f.attrib.cur.TxNs = int64(tx)
			f.attrib.cur.PropNs = int64(p.link.PropDelay)
		}
		for qp := range p.queues {
			for _, g := range p.queues[qp].frames() {
				if g.attrib == nil {
					continue
				}
				p.chargeWait(g, now)
				g.attrib.addWait(p.waitCause(pri, g.Priority), tx)
				g.attrib.acct = now + tx
			}
		}
	}
	p.curTxEnd = now + tx
	p.curTxPri = pri
	p.busy = now + tx
	p.sim.trace.emit(now, "tx", f, p.link.ID())
	loss := p.sim.cfg.LinkLoss[p.link.ID()]
	if now < p.burstUntil && p.burstLoss > loss {
		loss = p.burstLoss
	}
	if loss > 0 && p.sim.rng.Float64() < loss {
		// The frame is corrupted on the wire and never arrives.
		p.sim.mLost.Inc()
		p.sim.results.recordLost(f.Stream, now)
		p.sim.trace.emit(now, "lost", f, p.link.ID())
		p.sim.release(f)
	} else {
		p.sim.push(now+tx+p.link.PropDelay, evDeliver, f.idx)
	}
	// The completion wake takes its place in the event order now, but goes
	// on the heap only once there is a frame for it to send.
	if p.doneSeq = p.sim.nextSeq(); p.depth > 0 {
		p.pushWake(p.busy, p.doneSeq)
	}
}
