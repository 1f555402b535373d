package sim

import (
	"errors"
	"testing"
	"time"

	"etsn/internal/core"
	"etsn/internal/gcl"
	"etsn/internal/model"
)

const mtuTx = 124 * time.Microsecond

func fig2Network(t testing.TB) *model.Network {
	t.Helper()
	n := model.NewNetwork()
	for _, d := range []model.NodeID{"D1", "D2", "D3"} {
		if err := n.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddSwitch("SW1"); err != nil {
		t.Fatal(err)
	}
	for _, d := range []model.NodeID{"D1", "D2", "D3"} {
		if err := n.AddLink(d, "SW1", model.LinkConfig{Bandwidth: 100_000_000}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func mustPath(t testing.TB, n *model.Network, src, dst model.NodeID) []model.LinkID {
	t.Helper()
	p, err := n.ShortestPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// etsnPlan schedules the paper's Fig. 6 problem (sharing TCT + one ECT) and
// compiles E-TSN GCLs.
func etsnPlan(t testing.TB) (*model.Network, *core.Result, map[model.LinkID]*gcl.PortGCL, *model.ECT) {
	t.Helper()
	n := fig2Network(t)
	cycle := 5 * mtuTx
	ect := &model.ECT{ID: "e1", Path: mustPath(t, n, "D2", "D3"), E2E: cycle,
		LengthBytes: model.MTUBytes, MinInterevent: cycle}
	p := &core.Problem{
		Network: n,
		TCT: []*model.Stream{
			{ID: "s1", Path: mustPath(t, n, "D1", "D3"), E2E: 6 * mtuTx,
				LengthBytes: 3 * model.MTUBytes, Period: cycle, Type: model.StreamDet, Share: true},
		},
		ECT:  []*model.ECT{ect},
		Opts: core.Options{NProb: 5, Backend: core.BackendPlacer},
	}
	res, err := core.Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	gcls, err := gcl.Synthesize(res.Schedule, gcl.Config{OpenECTOnShared: true})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	return n, res, gcls, ect
}

func TestSimSingleTCTStream(t *testing.T) {
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
	s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
		Duration: 100 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := r.Delivered("s1")
	if got < 98 || got > 101 {
		t.Fatalf("delivered %d messages, want ~100", got)
	}
	wc, err := core.TCTWorstCase(n, res, "s1")
	if err != nil {
		t.Fatal(err)
	}
	for i, lat := range r.Latencies("s1") {
		if lat > wc {
			t.Fatalf("message %d latency %v exceeds schedule worst case %v", i, lat, wc)
		}
		if lat <= 0 {
			t.Fatalf("message %d non-positive latency %v", i, lat)
		}
	}
	if r.TotalDrops() != 0 {
		t.Fatalf("drops = %d", r.TotalDrops())
	}
}

func TestSimETSNECTWithinBound(t *testing.T) {
	n, res, gcls, ect := etsnPlan(t)
	bound, err := core.ECTWorstCaseBound(n, res, ect.ID)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
		ECT:      []ECTTraffic{{Stream: ect, Priority: model.PriorityECT}},
		Duration: 2 * time.Second, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered(ect.ID) < 100 {
		t.Fatalf("delivered %d ECT messages, want >= 100", r.Delivered(ect.ID))
	}
	for i, lat := range r.Latencies(ect.ID) {
		if lat > bound {
			t.Fatalf("ECT message %d latency %v exceeds analytic bound %v", i, lat, bound)
		}
	}
	// TCT protection: s1's runtime latency never exceeds its deadline.
	for i, lat := range r.Latencies("s1") {
		if lat > 6*mtuTx {
			t.Fatalf("TCT message %d latency %v exceeds deadline %v", i, lat, 6*mtuTx)
		}
	}
	if r.TotalDrops() != 0 {
		t.Fatalf("drops = %d", r.TotalDrops())
	}
}

func TestSimDeterministicBySeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		n, res, gcls, ect := etsnPlan(t)
		s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
			ECT:      []ECTTraffic{{Stream: ect, Priority: model.PriorityECT}},
			Duration: 500 * time.Millisecond, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.Latencies(ect.ID)
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestSimDedicatedSlotsMakeECTWait models the PERIOD baseline by hand: the
// ECT gate opens for exactly one slot per period, so events wait for it.
func TestSimDedicatedSlotsMakeECTWait(t *testing.T) {
	n := fig2Network(t)
	period := 2 * time.Millisecond
	// Build a schedule whose only reservation is a dedicated ECT slot
	// chain D2->SW1 at [0,124) and SW1->D3 at [124,248).
	sched := model.NewSchedule()
	sched.Hyperperiod = period
	path := mustPath(t, n, "D2", "D3")
	st := &model.Stream{ID: "e1", Path: path, E2E: period, Priority: model.PriorityECT,
		LengthBytes: model.MTUBytes, Period: period, Type: model.StreamDet}
	sched.AddStream(st)
	sched.AddSlot(model.FrameSlot{Stream: "e1", Link: path[0], Offset: 0, Length: 124,
		Period: 2000, Priority: model.PriorityECT})
	sched.AddSlot(model.FrameSlot{Stream: "e1", Link: path[1], Offset: 124, Length: 124,
		Period: 2000, Priority: model.PriorityECT})
	sched.Sort()
	gcls, err := gcl.Synthesize(sched, gcl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Do not emit e1 as TCT traffic: replace the stream table with an
	// empty Det set so only the stochastic source runs.
	runSched := model.NewSchedule()
	runSched.Hyperperiod = sched.Hyperperiod
	ect := &model.ECT{ID: "e1", Path: path, E2E: period,
		LengthBytes: model.MTUBytes, MinInterevent: period}
	s, err := New(Config{Network: n, Schedule: runSched, GCLs: gcls,
		ECT:      []ECTTraffic{{Stream: ect, Priority: model.PriorityECT}},
		Duration: 2 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	lats := r.Latencies("e1")
	if len(lats) < 100 {
		t.Fatalf("delivered %d, want >= 100", len(lats))
	}
	var max, sum time.Duration
	for _, l := range lats {
		sum += l
		if l > max {
			max = l
		}
	}
	avg := sum / time.Duration(len(lats))
	// Events wait on average about half a period for the dedicated slot.
	if avg < period/4 {
		t.Fatalf("avg latency %v suspiciously low for dedicated slots (period %v)", avg, period)
	}
	if max > period+248*time.Microsecond {
		t.Fatalf("max latency %v exceeds period + chain", max)
	}
}

func TestSimAVBStyleUnallocated(t *testing.T) {
	// ECT as AVB class: the TCT-only schedule leaves unallocated windows,
	// the AVB gate opens there, CBS shapes the class.
	n := fig2Network(t)
	cycle := 5 * mtuTx
	ect := &model.ECT{ID: "e1", Path: mustPath(t, n, "D2", "D3"), E2E: cycle,
		LengthBytes: model.MTUBytes, MinInterevent: cycle}
	p := &core.Problem{
		Network: n,
		TCT: []*model.Stream{
			{ID: "s1", Path: mustPath(t, n, "D1", "D3"), E2E: 6 * mtuTx,
				LengthBytes: 3 * model.MTUBytes, Period: cycle, Type: model.StreamDet},
		},
		Opts: core.Options{Backend: core.BackendPlacer},
	}
	res, err := core.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	gcls, err := gcl.Synthesize(res.Schedule, gcl.Config{
		UnallocatedGates: gcl.GateMask(1<<model.PriorityBestEffort | 1<<model.PriorityAVB)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
		ECT:      []ECTTraffic{{Stream: ect, Priority: model.PriorityAVB}},
		Duration: 2 * time.Second, Seed: 9,
		CBS: map[int]float64{model.PriorityAVB: 0.75}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered(ect.ID) < 50 {
		t.Fatalf("AVB delivered %d", r.Delivered(ect.ID))
	}
}

// jammedSecondHop builds a one-stream scenario whose first hop is scheduled
// normally and whose second hop never opens the stream's gate, so every frame
// is transmitted once and then dropped as a jam.
func jammedSecondHop(t testing.TB) (*model.Network, *model.Schedule, map[model.LinkID]*gcl.PortGCL) {
	t.Helper()
	n := fig2Network(t)
	period := time.Millisecond
	sched := model.NewSchedule()
	sched.Hyperperiod = period
	path := mustPath(t, n, "D1", "D3")
	st := &model.Stream{ID: "s1", Path: path, E2E: period, Priority: 3,
		LengthBytes: model.MTUBytes, Period: period, Type: model.StreamDet}
	sched.AddStream(st)
	// Slot only on the first link; the second hop's gate never opens for
	// priority 3, so frames must be dropped there.
	sched.AddSlot(model.FrameSlot{Stream: "s1", Link: path[0], Offset: 0, Length: 124,
		Period: 1000, Priority: 3})
	sched.Sort()
	gcls, err := gcl.Synthesize(sched, gcl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gcls[path[1]] = &gcl.PortGCL{Link: path[1], Cycle: period,
		Entries: []gcl.Entry{{Duration: period, Gates: 1 << model.PriorityBestEffort}}}
	return n, sched, gcls
}

func TestSimDropsWhenGateNeverOpens(t *testing.T) {
	n, sched, gcls := jammedSecondHop(t)
	s, err := New(Config{Network: n, Schedule: sched, GCLs: gcls,
		Duration: 10 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered("s1") != 0 {
		t.Fatalf("delivered %d, want 0", r.Delivered("s1"))
	}
	if r.Drops("s1") == 0 || r.TotalDrops() == 0 {
		t.Fatal("expected drops to be recorded")
	}
}

func TestSimWarmUpDiscardsEarly(t *testing.T) {
	n, res, gcls, ect := etsnPlan(t)
	run := func(warm time.Duration) int {
		s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
			ECT:      []ECTTraffic{{Stream: ect, Priority: model.PriorityECT}},
			Duration: time.Second, WarmUp: warm, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.Delivered(ect.ID)
	}
	all := run(0)
	late := run(500 * time.Millisecond)
	if late >= all {
		t.Fatalf("warm-up did not discard: %d vs %d", late, all)
	}
	if late == 0 {
		t.Fatal("warm-up discarded everything")
	}
}

func TestSimClockOffsetHook(t *testing.T) {
	n, res, gcls, ect := etsnPlan(t)
	s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
		ECT:      []ECTTraffic{{Stream: ect, Priority: model.PriorityECT}},
		Duration: 500 * time.Millisecond, Seed: 11,
		ClockOffset: func(node model.NodeID, _ time.Duration) time.Duration {
			if node == "SW1" {
				return 500 * time.Nanosecond
			}
			return 0
		}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered(ect.ID) == 0 {
		t.Fatal("no deliveries with clock offsets")
	}
}

func TestSimConfigValidation(t *testing.T) {
	n := fig2Network(t)
	sched := model.NewSchedule()
	sched.Hyperperiod = time.Millisecond
	good := mustPath(t, n, "D1", "D3")
	bad := []model.LinkID{good[0], {From: good[0].To, To: "nowhere"}}
	badTCT := model.NewSchedule()
	badTCT.Hyperperiod = time.Millisecond
	badTCT.AddStream(&model.Stream{ID: "s1", Path: bad, E2E: time.Millisecond,
		LengthBytes: model.MTUBytes, Period: time.Millisecond, Type: model.StreamDet})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil network", Config{Schedule: sched, Duration: time.Second}},
		{"nil schedule", Config{Network: n, Duration: time.Second}},
		{"zero duration", Config{Network: n, Schedule: sched}},
		{"nil ect stream", Config{Network: n, Schedule: sched, Duration: time.Second,
			ECT: []ECTTraffic{{}}}},
		{"bad ect priority", Config{Network: n, Schedule: sched, Duration: time.Second,
			ECT: []ECTTraffic{{Stream: &model.ECT{ID: "x"}, Priority: 9}}}},
		// Shapes that used to get past New and panic mid-run.
		{"be priority too high", Config{Network: n, Schedule: sched, Duration: time.Second,
			BestEffort: []BETraffic{{Path: good, MeanGap: time.Millisecond, Priority: model.NumPriorities}}}},
		{"be priority negative", Config{Network: n, Schedule: sched, Duration: time.Second,
			BestEffort: []BETraffic{{Path: good, MeanGap: time.Millisecond, Priority: -1}}}},
		{"be unknown link", Config{Network: n, Schedule: sched, Duration: time.Second,
			BestEffort: []BETraffic{{Path: bad, MeanGap: time.Millisecond}}}},
		{"ect empty path", Config{Network: n, Schedule: sched, Duration: time.Second,
			ECT: []ECTTraffic{{Stream: &model.ECT{ID: "x", LengthBytes: 100, MinInterevent: time.Millisecond}}}}},
		{"ect zero interevent", Config{Network: n, Schedule: sched, Duration: time.Second,
			ECT: []ECTTraffic{{Stream: &model.ECT{ID: "x", Path: good, LengthBytes: 100}}}}},
		{"ect unknown link", Config{Network: n, Schedule: sched, Duration: time.Second,
			ECT: []ECTTraffic{{Stream: &model.ECT{ID: "x", Path: bad, LengthBytes: 100, MinInterevent: time.Millisecond}}}}},
		{"ect replica unknown link", Config{Network: n, Schedule: sched, Duration: time.Second, Eliminate: true,
			ECT: []ECTTraffic{{Stream: &model.ECT{ID: "x", Path: good, LengthBytes: 100, MinInterevent: time.Millisecond},
				ExtraPaths: [][]model.LinkID{bad}}}}},
		{"tct unknown link", Config{Network: n, Schedule: badTCT, Duration: time.Second}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestShaper(t *testing.T) {
	sh := newShaper(50_000_000, 100_000_000) // 50% idle slope on 100 Mb/s
	if !sh.eligible() {
		t.Fatal("fresh shaper should be eligible")
	}
	// Transmit one MTU frame: credit goes negative.
	sh.onTransmit(0, 123360*time.Nanosecond)
	if sh.eligible() {
		t.Fatalf("credit %f should be negative after transmit", sh.credit)
	}
	ready := sh.readyAfter()
	if ready <= 0 {
		t.Fatal("readyAfter should be positive")
	}
	// After accruing while backlogged, credit recovers.
	sh.observe(123360*time.Nanosecond+ready+time.Microsecond, true)
	if !sh.eligible() {
		t.Fatalf("credit %f should have recovered", sh.credit)
	}
	// Idle queue sheds positive credit.
	sh.observe(sh.last+time.Millisecond, false)
	sh.observe(sh.last+time.Millisecond, false)
	if sh.credit > 0 {
		t.Fatalf("positive credit %f not shed when idle", sh.credit)
	}
}
