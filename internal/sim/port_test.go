package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"etsn/internal/gcl"
	"etsn/internal/model"
)

// portWith builds a bare port around a gate program for white-box tests.
func portWith(t *testing.T, entries []gcl.Entry, cycle time.Duration) *outPort {
	t.Helper()
	link := &model.Link{From: "a", To: "b", Bandwidth: 100_000_000, TimeUnit: time.Microsecond}
	p := &outPort{
		link:    link,
		program: &gcl.PortGCL{Link: link.ID(), Cycle: cycle, Entries: entries},
		shapers: map[int]*shaper{},
	}
	p.buildWindows()
	return p
}

func TestBuildWindowsMergesAdjacent(t *testing.T) {
	p := portWith(t, []gcl.Entry{
		{Duration: 100 * time.Microsecond, Gates: gcl.GateMask(1 << 3)},
		{Duration: 100 * time.Microsecond, Gates: gcl.GateMask(1<<3 | 1<<7)},
		{Duration: 800 * time.Microsecond, Gates: gcl.GateMask(1 << 0)},
	}, time.Millisecond)
	// Gate 3 is open over the first two entries: one merged window per
	// cycle, two after unrolling.
	if got := len(p.windows[3]); got != 2 {
		t.Fatalf("gate 3 windows = %d, want 2", got)
	}
	if p.windows[3][0].start != 0 || p.windows[3][0].end != 200*time.Microsecond {
		t.Fatalf("first window = %+v", p.windows[3][0])
	}
	// Gate 7 only the second entry.
	if p.windows[7][0].start != 100*time.Microsecond || p.windows[7][0].end != 200*time.Microsecond {
		t.Fatalf("gate 7 window = %+v", p.windows[7][0])
	}
	// Gate 5 never opens.
	if len(p.windows[5]) != 0 {
		t.Fatalf("gate 5 windows = %d", len(p.windows[5]))
	}
}

func TestBuildWindowsWrapMerge(t *testing.T) {
	// Gate 2 open at the end and the start of the cycle: after unrolling
	// the end-of-cycle window merges with the next cycle's start.
	p := portWith(t, []gcl.Entry{
		{Duration: 100 * time.Microsecond, Gates: gcl.GateMask(1 << 2)},
		{Duration: 800 * time.Microsecond, Gates: 0},
		{Duration: 100 * time.Microsecond, Gates: gcl.GateMask(1 << 2)},
	}, time.Millisecond)
	// Windows in two unrolled cycles: [0,100) [900,1100) [1900,2000).
	ws := p.windows[2]
	if len(ws) != 3 {
		t.Fatalf("windows = %+v", ws)
	}
	if ws[1].start != 900*time.Microsecond || ws[1].end != 1100*time.Microsecond {
		t.Fatalf("merged wrap window = %+v", ws[1])
	}
}

func TestNextOpenBinarySearch(t *testing.T) {
	p := portWith(t, []gcl.Entry{
		{Duration: 100 * time.Microsecond, Gates: gcl.GateMask(1 << 4)},
		{Duration: 400 * time.Microsecond, Gates: 0},
		{Duration: 100 * time.Microsecond, Gates: gcl.GateMask(1 << 4)},
		{Duration: 400 * time.Microsecond, Gates: 0},
	}, time.Millisecond)
	// From 0: immediately open.
	at, ok := p.nextOpen(0, 4, 50*time.Microsecond)
	if !ok || at != 0 {
		t.Fatalf("nextOpen(0) = %v, %v", at, ok)
	}
	// From 60us: the remaining 40us is too small for 50us -> next window.
	at, ok = p.nextOpen(60*time.Microsecond, 4, 50*time.Microsecond)
	if !ok || at != 500*time.Microsecond {
		t.Fatalf("nextOpen(60us) = %v, %v", at, ok)
	}
	// From late in the cycle: wraps to the next cycle.
	at, ok = p.nextOpen(700*time.Microsecond, 4, 50*time.Microsecond)
	if !ok || at != 1000*time.Microsecond {
		t.Fatalf("nextOpen(700us) = %v, %v", at, ok)
	}
	// In a later cycle the absolute time is preserved.
	at, ok = p.nextOpen(5*time.Millisecond+60*time.Microsecond, 4, 50*time.Microsecond)
	if !ok || at != 5*time.Millisecond+500*time.Microsecond {
		t.Fatalf("nextOpen(5.06ms) = %v, %v", at, ok)
	}
	// A need larger than any window fails.
	if _, ok := p.nextOpen(0, 4, 200*time.Microsecond); ok {
		t.Fatal("oversized need satisfied")
	}
	// A never-open gate fails.
	if _, ok := p.nextOpen(0, 6, time.Microsecond); ok {
		t.Fatal("closed gate satisfied")
	}
}

func TestNextOpenAlwaysOpenGate(t *testing.T) {
	p := portWith(t, []gcl.Entry{
		{Duration: time.Millisecond, Gates: 0xFF},
	}, time.Millisecond)
	at, ok := p.nextOpen(123456*time.Nanosecond, 0, 999*time.Microsecond)
	if !ok || at != 123456*time.Nanosecond {
		t.Fatalf("nextOpen = %v, %v", at, ok)
	}
}

func TestNextOpenAgreesWithGCL(t *testing.T) {
	// The port's binary-search nextOpen must agree with the reference
	// implementation in package gcl.
	entries := []gcl.Entry{
		{Duration: 124 * time.Microsecond, Gates: gcl.GateMask(1 << 5)},
		{Duration: 76 * time.Microsecond, Gates: 0},
		{Duration: 124 * time.Microsecond, Gates: gcl.GateMask(1<<5 | 1<<7)},
		{Duration: 176 * time.Microsecond, Gates: gcl.GateMask(1 << 0)},
		{Duration: 124 * time.Microsecond, Gates: gcl.GateMask(1 << 7)},
		{Duration: 376 * time.Microsecond, Gates: gcl.GateMask(1 << 0)},
	}
	p := portWith(t, entries, time.Millisecond)
	for pri := 0; pri < model.NumPriorities; pri++ {
		for _, need := range []time.Duration{10 * time.Microsecond, 124 * time.Microsecond} {
			for step := 0; step < 200; step++ {
				at := time.Duration(step) * 13 * time.Microsecond
				gotAt, gotOK := p.nextOpen(at, pri, need)
				wantAt, _, wantOK := p.program.NextOpen(at, pri, need)
				if gotOK != wantOK || (gotOK && gotAt != wantAt) {
					t.Fatalf("pri %d need %v at %v: port (%v,%v) vs gcl (%v,%v)",
						pri, need, at, gotAt, gotOK, wantAt, wantOK)
				}
			}
		}
	}
}

func TestFragmentBytes(t *testing.T) {
	cases := []struct {
		total, frags, j, want int
	}{
		{1500, 1, 0, 1500},
		{3000, 2, 0, 1500},
		{3000, 2, 1, 1500},
		{2000, 2, 0, 1500},
		{2000, 2, 1, 500},
		{256, 1, 0, 256},
	}
	for _, c := range cases {
		if got := fragmentBytes(c.total, c.frags, c.j); got != c.want {
			t.Errorf("fragmentBytes(%d,%d,%d) = %d, want %d", c.total, c.frags, c.j, got, c.want)
		}
	}
}

func TestBETrafficFlows(t *testing.T) {
	// A lone BE flow on an unprogrammed network delivers frames with
	// line-rate latency.
	n := fig2Network(t)
	path := mustPath(t, n, "D1", "D3")
	sched := model.NewSchedule()
	sched.Hyperperiod = time.Millisecond
	s, err := New(Config{
		Network:  n,
		Schedule: sched,
		Duration: 100 * time.Millisecond,
		Seed:     2,
		BestEffort: []BETraffic{{
			Path:    path,
			MeanGap: time.Millisecond,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered("be0") < 50 {
		t.Fatalf("BE delivered %d", r.Delivered("be0"))
	}
	for _, lat := range r.Latencies("be0") {
		if lat < 2*123*time.Microsecond {
			t.Fatalf("BE latency %v below two serializations", lat)
		}
	}
}

func TestBETrafficZeroGapIgnored(t *testing.T) {
	n := fig2Network(t)
	sched := model.NewSchedule()
	sched.Hyperperiod = time.Millisecond
	s, err := New(Config{
		Network:    n,
		Schedule:   sched,
		Duration:   10 * time.Millisecond,
		Seed:       2,
		BestEffort: []BETraffic{{Path: mustPath(t, n, "D1", "D3")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered("be0") != 0 {
		t.Fatal("zero-gap BE flow should be skipped")
	}
}

func TestTraceHops(t *testing.T) {
	n, res, gcls, ect := etsnPlan(t)
	s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
		ECT:       []ECTTraffic{{Stream: ect, Priority: model.PriorityECT}},
		Duration:  500 * time.Millisecond,
		Seed:      4,
		TraceHops: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	delivered := r.Delivered(ect.ID)
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Two hops on the ECT path; each hop has one trace per frame, and the
	// per-hop latency is monotone along the path frame by frame.
	h0 := r.HopLatencies(ect.ID, 0)
	h1 := r.HopLatencies(ect.ID, 1)
	if len(h0) != delivered || len(h1) != delivered {
		t.Fatalf("hop traces = %d/%d, delivered %d", len(h0), len(h1), delivered)
	}
	for i := range h0 {
		if h0[i] >= h1[i] {
			t.Fatalf("frame %d: hop0 %v not before hop1 %v", i, h0[i], h1[i])
		}
	}
	// The last hop's latency equals the end-to-end latency.
	e2e := r.Latencies(ect.ID)
	for i := range e2e {
		if h1[i] != e2e[i] {
			t.Fatalf("frame %d: last hop %v != e2e %v", i, h1[i], e2e[i])
		}
	}
}

func TestTraceHopsDisabledByDefault(t *testing.T) {
	n, res, gcls, ect := etsnPlan(t)
	s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
		ECT:      []ECTTraffic{{Stream: ect, Priority: model.PriorityECT}},
		Duration: 100 * time.Millisecond, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.HopLatencies(ect.ID, 0)) != 0 {
		t.Fatal("hop traces recorded without TraceHops")
	}
}

func TestCQFReceiveQueue(t *testing.T) {
	c := &CQFConfig{CycleTime: time.Millisecond, QueueA: 6, QueueB: 7}
	// Even cycle [0,1ms): A transmits, arrivals go to B.
	if got := c.receiveQueue(500 * time.Microsecond); got != 7 {
		t.Fatalf("even cycle receive = %d, want 7", got)
	}
	// Odd cycle [1ms,2ms): B transmits, arrivals go to A.
	if got := c.receiveQueue(1500 * time.Microsecond); got != 6 {
		t.Fatalf("odd cycle receive = %d, want 6", got)
	}
	if got := c.receiveQueue(2 * time.Millisecond); got != 7 {
		t.Fatalf("wrap = %d, want 7", got)
	}
}

func TestCQFConfigValidation(t *testing.T) {
	n := fig2Network(t)
	sched := model.NewSchedule()
	sched.Hyperperiod = time.Millisecond
	bad := []CQFConfig{
		{CycleTime: 0, QueueA: 6, QueueB: 7},
		{CycleTime: time.Millisecond, QueueA: 6, QueueB: 6},
		{CycleTime: time.Millisecond, QueueA: -1, QueueB: 7},
		{CycleTime: time.Millisecond, QueueA: 6, QueueB: 9},
	}
	for i := range bad {
		if _, err := New(Config{Network: n, Schedule: sched, Duration: time.Second, CQF: &bad[i]}); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestTraceJSONL(t *testing.T) {
	n, res, gcls, ect := etsnPlan(t)
	var buf bytes.Buffer
	s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
		ECT:      []ECTTraffic{{Stream: ect, Priority: model.PriorityECT}},
		Duration: 10 * time.Millisecond, Seed: 4, Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 10 {
		t.Fatalf("trace lines = %d", len(lines))
	}
	kinds := map[string]int{}
	var prev int64 = -1
	for i, line := range lines {
		var ev TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		kinds[ev.Kind]++
		if ev.TimeNs < prev {
			t.Fatalf("trace not time-ordered at line %d", i)
		}
		prev = ev.TimeNs
		if ev.Stream == "" || ev.Link == "" {
			t.Fatalf("incomplete event %+v", ev)
		}
	}
	for _, kind := range []string{"enqueue", "tx", "deliver"} {
		if kinds[kind] == 0 {
			t.Fatalf("no %q events: %v", kind, kinds)
		}
	}
	// Conservation: transmissions never exceed enqueues, deliveries never
	// exceed transmissions, and at most a handful of frames are still in
	// flight when the run ends.
	if kinds["tx"] > kinds["enqueue"] || kinds["deliver"] > kinds["tx"] {
		t.Fatalf("event counts unbalanced: %v", kinds)
	}
	if kinds["enqueue"]-kinds["deliver"] > 4 {
		t.Fatalf("too many frames unaccounted: %v", kinds)
	}
}

// TestPopHeadReleasesFrame pins both removal paths (a transmission, a jam
// drop) to popHead: the slot a frame leaves is cleared, so the queue's backing
// array does not keep it reachable, a queue that empties keeps that array,
// and a standing queue's pushes reuse popped slots instead of regrowing it.
func TestPopHeadReleasesFrame(t *testing.T) {
	p := portWith(t, []gcl.Entry{{Duration: time.Millisecond, Gates: 0xFF}}, time.Millisecond)
	backing := make([]*Frame, 0, 4)
	q := &p.queues[3]
	q.buf = append(backing, &Frame{Seq: 1}, &Frame{Seq: 2})
	p.depth = 2
	p.popHead(3)
	if backing[:2][0] != nil || q.len() != 1 || q.frames()[0].Seq != 2 || p.depth != 1 {
		t.Fatalf("after one pop: slot %v, queue %v, depth %d", backing[:2][0], q.frames(), p.depth)
	}
	p.popHead(3)
	if backing[:2][1] != nil || q.len() != 0 || p.depth != 0 {
		t.Fatalf("after two pops: slot %v, queue %v, depth %d", backing[:2][1], q.frames(), p.depth)
	}
	if cap(q.buf) != 4 || q.head != 0 {
		t.Fatalf("emptied queue has capacity %d and head %d, want its 4-slot array back from the start", cap(q.buf), q.head)
	}
	// A standing queue: fill the array, then pop one and push one, many
	// times over. The array may double once, so that at least half of it is
	// popped slots when it next fills up, and never grows again; every
	// popped slot stays nil.
	for i := 0; i < 4; i++ {
		q.push(&Frame{Seq: int64(i)})
	}
	for i := 4; i < 40; i++ {
		q.pop()
		q.push(&Frame{Seq: int64(i)})
		if cap(q.buf) > 8 {
			t.Fatalf("step %d: standing queue regrew to capacity %d", i, cap(q.buf))
		}
		for j, f := range q.buf[:q.head] {
			if f != nil {
				t.Fatalf("step %d: popped slot %d still holds frame %d", i, j, f.Seq)
			}
		}
		if fs := q.frames(); q.len() != 4 || fs[0].Seq != int64(i-3) || fs[3].Seq != int64(i) {
			t.Fatalf("step %d: queue %v out of FIFO order", i, fs)
		}
	}

	// End to end: after a run with transmissions on the first hop and jam
	// drops on the second, no port's queue memory still points at a frame.
	n, sched, gcls := jammedSecondHop(t)
	s, err := New(Config{Network: n, Schedule: sched, GCLs: gcls, Duration: 10 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalDrops() == 0 {
		t.Fatal("scenario produced no jam drops")
	}
	for lid, port := range s.ports {
		for pri, q := range port.queues {
			for i, f := range q.buf[:cap(q.buf)] {
				if f != nil {
					t.Fatalf("%s queue %d slot %d still holds frame %s/%d", lid, pri, i, f.Stream, f.Seq)
				}
			}
		}
	}
}

// futureWakes counts, per (port, instant), the wake-up events on the heap.
func futureWakes(s *Simulator) map[*outPort]map[time.Duration]int {
	seen := make(map[*outPort]map[time.Duration]int)
	for i := range s.events {
		if e := &s.events[i]; e.kind == evWake {
			p := s.portTab[e.op]
			if seen[p] == nil {
				seen[p] = make(map[time.Duration]int)
			}
			seen[p][e.at]++
		}
	}
	return seen
}

// TestOneWakePerPortAndInstant steps the event loop by hand and checks after
// every event that no port has two wake-ups on the heap for the same instant,
// and that the port's own record of its pending wakes is the heap's. The run
// mixes gated TCT, ECT, a shaped class, background traffic and a reboot, so
// gate wakes, shaper wakes, completion wakes and fault wakes all occur.
func TestOneWakePerPortAndInstant(t *testing.T) {
	n, res, gcls, ect := etsnPlan(t)
	s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
		ECT: []ECTTraffic{{Stream: ect, Priority: model.PriorityECT}},
		BestEffort: []BETraffic{
			{Path: mustPath(t, n, "D1", "D3"), MeanGap: 300 * time.Microsecond},
			{Path: mustPath(t, n, "D2", "D3"), MeanGap: 200 * time.Microsecond, Priority: 2},
		},
		CBS:      map[int]float64{2: 0.2},
		Faults:   []Fault{{At: 20 * time.Millisecond, Kind: FaultSwitchReboot, Node: "SW1", Duration: 2 * time.Millisecond}},
		Duration: 40 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.prime()
	wakes, steps := 0, 0
	for s.events.Len() > 0 && s.events[0].at <= s.cfg.Duration {
		e := s.events.pop()
		if e.kind == evWake {
			wakes++
		}
		s.dispatch(&e)
		steps++
		heap := futureWakes(s)
		for _, p := range s.ports {
			for at, count := range heap[p] {
				if count > 1 {
					t.Fatalf("step %d, t=%v: %d wakes for %s at %v", steps, s.now, count, p.link.ID(), at)
				}
			}
			if len(p.pend) != len(heap[p]) {
				t.Fatalf("step %d, t=%v: %s records %v pending, heap has %v", steps, s.now, p.link.ID(), p.pend, heap[p])
			}
			for _, at := range p.pend {
				if heap[p][at] != 1 {
					t.Fatalf("step %d: %s records a wake at %v the heap does not have", steps, p.link.ID(), at)
				}
			}
		}
	}
	if wakes < 100 || s.results.Delivered(ect.ID) == 0 {
		t.Fatalf("run too quiet to mean anything: %d wakes in %d events, %d ECT deliveries",
			wakes, steps, s.results.Delivered(ect.ID))
	}
}
