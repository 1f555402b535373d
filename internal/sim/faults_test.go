package sim

import (
	"cmp"
	"errors"
	"slices"
	"testing"
	"time"

	"etsn/internal/core"
	"etsn/internal/gcl"
	"etsn/internal/model"
)

// singleStreamPlan schedules one 1 ms-period TCT stream D1->D3 across SW1
// and compiles plain GCLs — the minimal deterministic workload the fault
// tests disturb.
func singleStreamPlan(t *testing.T) (*model.Network, *core.Result, map[model.LinkID]*gcl.PortGCL) {
	t.Helper()
	n := fig2Network(t)
	cycle := time.Millisecond
	p := &core.Problem{
		Network: n,
		TCT: []*model.Stream{
			{ID: "s1", Path: mustPath(t, n, "D1", "D3"), E2E: cycle,
				LengthBytes: model.MTUBytes, Period: cycle, Type: model.StreamDet},
		},
		Opts: core.Options{Backend: core.BackendPlacer},
	}
	res, err := core.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	gcls, err := gcl.Synthesize(res.Schedule, gcl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return n, res, gcls
}

func runWithFaults(t *testing.T, n *model.Network, res *core.Result,
	gcls map[model.LinkID]*gcl.PortGCL, faults []Fault, onFault func(*Simulator, Fault)) *Results {
	t.Helper()
	s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
		Duration: 100 * time.Millisecond, Seed: 1, Faults: faults, OnFault: onFault})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// countWindow counts instants in [from, to).
func countWindow(times []time.Duration, from, to time.Duration) int {
	n := 0
	for _, at := range times {
		if at >= from && at < to {
			n++
		}
	}
	return n
}

func TestFaultLinkDownDropsThenHeals(t *testing.T) {
	n, res, gcls := singleStreamPlan(t)
	link := model.LinkID{From: "SW1", To: "D3"}
	r := runWithFaults(t, n, res, gcls, []Fault{
		{At: 30 * time.Millisecond, Kind: FaultLinkDown, Link: link},
		{At: 60 * time.Millisecond, Kind: FaultLinkUp, Link: link},
	}, nil)

	drops := r.DropTimes("s1")
	if countWindow(drops, 30*time.Millisecond, 60*time.Millisecond) == 0 {
		t.Fatal("no drops recorded during the outage")
	}
	if got := countWindow(drops, 61*time.Millisecond, 200*time.Millisecond); got != 0 {
		t.Fatalf("%d drops after the link healed", got)
	}
	if got := countWindow(drops, 0, 30*time.Millisecond); got != 0 {
		t.Fatalf("%d drops before the fault", got)
	}
	deliveries := r.DeliveryTimes("s1")
	// Frames already past the failed hop may land just after the fault;
	// nothing can get through once the pipeline empties.
	if got := countWindow(deliveries, 32*time.Millisecond, 60*time.Millisecond); got != 0 {
		t.Fatalf("%d deliveries during the outage", got)
	}
	if countWindow(deliveries, 61*time.Millisecond, 200*time.Millisecond) == 0 {
		t.Fatal("no deliveries after the link healed")
	}
	if r.TotalDrops() != r.Drops("s1") {
		t.Fatalf("TotalDrops %d != stream drops %d", r.TotalDrops(), r.Drops("s1"))
	}
}

func TestFaultSwitchRebootDarkWindow(t *testing.T) {
	n, res, gcls := singleStreamPlan(t)
	r := runWithFaults(t, n, res, gcls, []Fault{
		{At: 30 * time.Millisecond, Kind: FaultSwitchReboot, Node: "SW1",
			Duration: 20 * time.Millisecond},
	}, nil)

	if countWindow(r.DropTimes("s1"), 30*time.Millisecond, 50*time.Millisecond) == 0 {
		t.Fatal("no drops during the reboot dark window")
	}
	deliveries := r.DeliveryTimes("s1")
	if got := countWindow(deliveries, 32*time.Millisecond, 50*time.Millisecond); got != 0 {
		t.Fatalf("%d deliveries while the switch was dark", got)
	}
	if countWindow(deliveries, 51*time.Millisecond, 200*time.Millisecond) == 0 {
		t.Fatal("no deliveries after the switch came back")
	}
}

func TestFaultLossBurst(t *testing.T) {
	n, res, gcls := singleStreamPlan(t)
	r := runWithFaults(t, n, res, gcls, []Fault{
		{At: 30 * time.Millisecond, Kind: FaultLossBurst,
			Link:     model.LinkID{From: "D1", To: "SW1"},
			Duration: 20 * time.Millisecond, Loss: 1.0},
	}, nil)

	losses := r.LossTimes("s1")
	// Every frame whose transmission starts inside the burst is corrupted:
	// one per 1 ms period for 20 ms.
	if got := countWindow(losses, 30*time.Millisecond, 51*time.Millisecond); got < 18 {
		t.Fatalf("%d losses during the burst, want ~20", got)
	}
	if got := countWindow(losses, 0, 30*time.Millisecond); got != 0 {
		t.Fatalf("%d losses before the burst", got)
	}
	if got := countWindow(losses, 51*time.Millisecond, 200*time.Millisecond); got != 0 {
		t.Fatalf("%d losses after the burst", got)
	}
	if countWindow(r.DeliveryTimes("s1"), 51*time.Millisecond, 200*time.Millisecond) == 0 {
		t.Fatal("no deliveries after the burst ended")
	}
}

func TestFaultClockStepDisturbsSchedule(t *testing.T) {
	n, res, gcls := singleStreamPlan(t)
	wc, err := core.TCTWorstCase(n, res, "s1")
	if err != nil {
		t.Fatal(err)
	}
	// A step that is not a multiple of the 1 ms cycle leaves SW1's gates
	// misaligned with frame arrivals from then on.
	r := runWithFaults(t, n, res, gcls, []Fault{
		{At: 50 * time.Millisecond, Kind: FaultClockStep, Node: "SW1",
			Step: 257 * time.Microsecond},
	}, nil)

	lats := r.Latencies("s1")
	times := r.DeliveryTimes("s1")
	var worstBefore, worstAfter time.Duration
	for i, at := range times {
		if at < 50*time.Millisecond {
			if lats[i] > worstBefore {
				worstBefore = lats[i]
			}
		} else if lats[i] > worstAfter {
			worstAfter = lats[i]
		}
	}
	if worstBefore > wc {
		t.Fatalf("pre-fault worst %v exceeds schedule worst case %v", worstBefore, wc)
	}
	if worstAfter <= wc && r.TotalDrops() == 0 {
		t.Fatalf("clock step had no observable effect (worst after %v <= %v, no drops)",
			worstAfter, wc)
	}
}

func TestFaultValidation(t *testing.T) {
	n, res, gcls := singleStreamPlan(t)
	good := model.LinkID{From: "D1", To: "SW1"}
	cases := []struct {
		name  string
		fault Fault
	}{
		{"negative time", Fault{At: -time.Second, Kind: FaultLinkDown, Link: good}},
		{"unknown link", Fault{Kind: FaultLinkDown, Link: model.LinkID{From: "X", To: "Y"}}},
		{"unknown kind", Fault{Link: good}},
		{"loss zero", Fault{Kind: FaultLossBurst, Link: good, Duration: time.Millisecond}},
		{"loss above one", Fault{Kind: FaultLossBurst, Link: good, Duration: time.Millisecond, Loss: 1.5}},
		{"loss no duration", Fault{Kind: FaultLossBurst, Link: good, Loss: 0.5}},
		{"reboot unknown node", Fault{Kind: FaultSwitchReboot, Node: "nope", Duration: time.Millisecond}},
		{"reboot no duration", Fault{Kind: FaultSwitchReboot, Node: "SW1"}},
		{"step unknown node", Fault{Kind: FaultClockStep, Node: "nope", Step: time.Microsecond}},
		{"step zero", Fault{Kind: FaultClockStep, Node: "SW1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
				Duration: time.Millisecond, Faults: []Fault{tc.fault}})
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("New = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestReprogramShedsStreamAndRestartsOthers(t *testing.T) {
	n := fig2Network(t)
	cycle := time.Millisecond
	p := &core.Problem{
		Network: n,
		TCT: []*model.Stream{
			{ID: "s1", Path: mustPath(t, n, "D1", "D3"), E2E: cycle,
				LengthBytes: model.MTUBytes, Period: cycle, Type: model.StreamDet},
			{ID: "s2", Path: mustPath(t, n, "D2", "D3"), E2E: cycle,
				LengthBytes: model.MTUBytes, Period: cycle, Type: model.StreamDet},
		},
		Opts: core.Options{Backend: core.BackendPlacer},
	}
	res, err := core.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	gcls, err := gcl.Synthesize(res.Schedule, gcl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// D3 originates no traffic, so a step on its clock is a benign trigger
	// for the mid-run reprogram below.
	reprogramAt := 50 * time.Millisecond
	hook := func(s *Simulator, f Fault) {
		if err := s.Reprogram(res.Schedule, gcls, map[model.StreamID]bool{"s1": true}); err != nil {
			t.Errorf("Reprogram: %v", err)
		}
	}
	r := runWithFaults(t, n, res, gcls, []Fault{
		{At: reprogramAt, Kind: FaultClockStep, Node: "D3", Step: time.Millisecond},
	}, hook)

	// s1 is shed: in-flight frames may land right after the switch, then
	// nothing.
	if got := countWindow(r.DeliveryTimes("s1"), 52*time.Millisecond, 200*time.Millisecond); got != 0 {
		t.Fatalf("shed stream delivered %d messages after reprogram", got)
	}
	if countWindow(r.DeliveryTimes("s1"), 0, 50*time.Millisecond) == 0 {
		t.Fatal("s1 never delivered before the reprogram")
	}
	// s2 restarts on the new generation with no double emissions and no
	// gap: ~one delivery per period across the whole run.
	got := r.Delivered("s2")
	if got < 98 || got > 101 {
		t.Fatalf("s2 delivered %d messages, want ~100", got)
	}
	if r.Drops("s2") != 0 || r.Lost("s2") != 0 {
		t.Fatalf("s2 drops=%d lost=%d", r.Drops("s2"), r.Lost("s2"))
	}
}

// TestReprogramWakeOrder steps a run to mid-flight, reprograms it, and
// checks the wakes the Reprogram put on the heap: their sequence numbers,
// and with them the dispatch order at that instant, ascend in Links() order.
// Every port ends up with a wake at the reprogram instant, its own or one it
// already had.
func TestReprogramWakeOrder(t *testing.T) {
	n, res, gcls, ect := etsnPlan(t)
	s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
		ECT:      []ECTTraffic{{Stream: ect, Priority: model.PriorityECT}},
		Duration: 20 * time.Millisecond, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.prime()
	for s.events.Len() > 0 && s.events[0].at < 5*time.Millisecond {
		e := s.events.pop()
		s.dispatch(&e)
	}
	links := n.Links()
	for i, p := range s.portTab {
		if p.link.ID() != links[i].ID() {
			t.Fatalf("portTab[%d] is %s, Links()[%d] is %s", i, p.link.ID(), i, links[i].ID())
		}
	}
	before := s.seq
	if err := s.Reprogram(res.Schedule, gcls, nil); err != nil {
		t.Fatal(err)
	}
	var pushed []event
	woken := make(map[uint32]bool)
	for _, e := range s.events {
		if e.kind != evWake || e.at != s.now {
			continue
		}
		woken[e.op] = true
		if e.seq > before {
			pushed = append(pushed, e)
		}
	}
	if len(woken) != len(s.portTab) {
		t.Fatalf("%d of %d ports have a wake at the reprogram instant", len(woken), len(s.portTab))
	}
	if len(pushed) < 2 {
		t.Fatalf("Reprogram pushed %d wakes, too few to order", len(pushed))
	}
	slices.SortFunc(pushed, func(a, b event) int { return cmp.Compare(a.seq, b.seq) })
	for i := 1; i < len(pushed); i++ {
		if pushed[i].op <= pushed[i-1].op {
			t.Fatalf("wake seq %d for %s follows seq %d for %s: not in Links() order",
				pushed[i].seq, s.portTab[pushed[i].op].link.ID(), pushed[i-1].seq, s.portTab[pushed[i-1].op].link.ID())
		}
	}
}
