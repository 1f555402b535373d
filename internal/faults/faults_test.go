package faults_test

import (
	"crypto/sha256"
	"errors"
	"reflect"
	"testing"
	"time"

	"etsn/internal/core"
	"etsn/internal/experiments"
	"etsn/internal/faults"
	"etsn/internal/gcl"
	"etsn/internal/model"
	"etsn/internal/sim"
)

// ringProblem builds a small deployment on the 4-switch ring: one TCT stream
// D1->D3 across the SW1-SW2 link (sharing configurable), one sharing TCT
// stream D5->D7 across SW3-SW4, and one ECT stream alongside it.
func ringProblem(t *testing.T, shareS1 bool) *core.Problem {
	t.Helper()
	n, err := experiments.RingNetwork()
	if err != nil {
		t.Fatal(err)
	}
	mustPath := func(src, dst model.NodeID) []model.LinkID {
		p, err := n.ShortestPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	period := 10 * time.Millisecond
	return &core.Problem{
		Network: n,
		TCT: []*model.Stream{
			{ID: "s1", Path: mustPath("D1", "D3"), E2E: period,
				LengthBytes: model.MTUBytes, Period: period, Type: model.StreamDet, Share: shareS1},
			{ID: "s2", Path: mustPath("D5", "D7"), E2E: period,
				LengthBytes: model.MTUBytes, Period: period, Type: model.StreamDet, Share: true},
		},
		ECT: []*model.ECT{
			{ID: "e1", Path: mustPath("D5", "D7"), E2E: period,
				LengthBytes: model.MTUBytes, MinInterevent: period},
		},
		Opts: core.Options{NProb: 8, SharedReserves: true},
	}
}

func deploy(t *testing.T, p *core.Problem) (*core.Result, map[model.LinkID]*gcl.PortGCL) {
	t.Helper()
	res, err := core.Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	gcls, err := gcl.Synthesize(res.Schedule, gcl.Config{OpenECTOnShared: true})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	return res, gcls
}

func controller(t *testing.T, p *core.Problem, be []sim.BETraffic) (*faults.Controller, *core.Result) {
	t.Helper()
	res, gcls := deploy(t, p)
	c, err := faults.NewController(p, res, gcls, be)
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

var sw12 = model.LinkID{From: "SW1", To: "SW2"}
var sw41 = model.LinkID{From: "SW4", To: "SW1"}

func TestFailIncrementalKeepsSurvivingSlots(t *testing.T) {
	p := ringProblem(t, false)
	c, orig := controller(t, p, nil)
	rec, err := c.Fail(sw12)
	if err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if !rec.Incremental {
		t.Fatal("expected incremental recovery (only a non-sharing TCT crosses the dead link)")
	}
	newPath, ok := rec.Rerouted["s1"]
	if !ok {
		t.Fatalf("s1 not rerouted: %v", rec.Rerouted)
	}
	for _, lid := range newPath {
		if lid == sw12 || lid == sw12.Reverse() {
			t.Fatalf("rerouted path still crosses the dead link: %v", newPath)
		}
	}
	if len(rec.ShedTCT) != 0 {
		t.Fatalf("incremental recovery shed TCT %v", rec.ShedTCT)
	}
	// The surviving sharing stream and the ECT's possibilities stay frozen.
	for _, id := range []model.StreamID{"s2"} {
		st, ok := rec.Result.Schedule.Streams[id]
		if !ok {
			t.Fatalf("%s missing from recovered schedule", id)
		}
		for _, lid := range st.Path {
			before := orig.Schedule.StreamSlots(id, lid)
			after := rec.Result.Schedule.StreamSlots(id, lid)
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("%s slots moved on %s:\nbefore %v\nafter  %v", id, lid, before, after)
			}
		}
	}
	if vs := core.Verify(rec.Problem.Network, rec.Result); len(vs) > 0 {
		t.Fatalf("recovered schedule fails verification: %v", vs[0])
	}
	if len(rec.ChangedPorts) == 0 {
		t.Fatal("recovery changed no gate programs")
	}
}

func TestFailSharingStreamFallsBackToFullReplan(t *testing.T) {
	p := ringProblem(t, true)
	c, _ := controller(t, p, nil)
	rec, err := c.Fail(sw12)
	if err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if rec.Incremental {
		t.Fatal("sharing TCT on the dead link must force a full replan")
	}
	if _, ok := rec.Rerouted["s1"]; !ok {
		t.Fatalf("s1 not rerouted: %v", rec.Rerouted)
	}
	if len(rec.ShedTCT) != 0 {
		t.Fatalf("full replan shed TCT %v", rec.ShedTCT)
	}
	if vs := core.Verify(rec.Problem.Network, rec.Result); len(vs) > 0 {
		t.Fatalf("recovered schedule fails verification: %v", vs[0])
	}
}

func TestFailShedsBestEffortOnDeadLinks(t *testing.T) {
	p := ringProblem(t, false)
	bePath, err := p.Network.ShortestPath("D2", "D4")
	if err != nil {
		t.Fatal(err)
	}
	be := []sim.BETraffic{{Path: bePath, PayloadBytes: model.MTUBytes, MeanGap: time.Millisecond}}
	c, _ := controller(t, p, be)
	rec, err := c.Fail(sw12)
	if err != nil {
		t.Fatalf("Fail: %v", err)
	}
	want := []model.StreamID{sim.BEStreamID(0)}
	if !reflect.DeepEqual(rec.ShedBE, want) {
		t.Fatalf("ShedBE = %v, want %v", rec.ShedBE, want)
	}
}

func TestFailIsolatedTalkerShedsTCTNeverECT(t *testing.T) {
	p := ringProblem(t, false)
	c, _ := controller(t, p, nil)
	// Killing both of SW1's ring links strands D1/D2: s1 has no route left.
	rec, err := c.Fail(sw12, sw41)
	if err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if !reflect.DeepEqual(rec.ShedTCT, []model.StreamID{"s1"}) {
		t.Fatalf("ShedTCT = %v, want [s1]", rec.ShedTCT)
	}
	if len(rec.Problem.ECT) != 1 || rec.Problem.ECT[0].ID != "e1" {
		t.Fatal("ECT stream must survive degradation")
	}
	if _, ok := rec.Result.Schedule.Streams["s2"]; !ok {
		t.Fatal("unaffected TCT s2 missing from recovered schedule")
	}
	if vs := core.Verify(rec.Problem.Network, rec.Result); len(vs) > 0 {
		t.Fatalf("recovered schedule fails verification: %v", vs[0])
	}
}

func TestFailUnreachableECTIsUnrecoverable(t *testing.T) {
	p := ringProblem(t, false)
	// Move the ECT onto the doomed island.
	path, err := p.Network.ShortestPath("D1", "D3")
	if err != nil {
		t.Fatal(err)
	}
	p.ECT[0].Path = path
	c, _ := controller(t, p, nil)
	_, err = c.Fail(sw12, sw41)
	if !errors.Is(err, faults.ErrUnrecoverable) {
		t.Fatalf("Fail = %v, want ErrUnrecoverable", err)
	}
}

func TestFailValidation(t *testing.T) {
	p := ringProblem(t, false)
	c, _ := controller(t, p, nil)
	if _, err := c.Fail(); err == nil {
		t.Fatal("Fail() with no links must error")
	}
	if _, err := c.Fail(model.LinkID{From: "X", To: "Y"}); err == nil {
		t.Fatal("Fail on an unknown link must error")
	}
}

// schedulesEqual compares two schedules slot by slot.
func schedulesEqual(a, b *model.Schedule) bool {
	la, lb := a.Links(), b.Links()
	if !reflect.DeepEqual(la, lb) {
		return false
	}
	for _, lid := range la {
		if !reflect.DeepEqual(a.SlotsOn(lid), b.SlotsOn(lid)) {
			return false
		}
	}
	return true
}

// TestFlapConvergence is the down/up property: after N fail/restore cycles
// on a link, the deterministic replan from the pristine problem reproduces
// the original deployment exactly — flapping cannot drift the schedule.
func TestFlapConvergence(t *testing.T) {
	for _, cycles := range []int{1, 2, 3} {
		p := ringProblem(t, false)
		c, orig := controller(t, p, nil)
		for i := 0; i < cycles; i++ {
			if _, err := c.Fail(sw12); err != nil {
				t.Fatalf("cycle %d Fail: %v", i, err)
			}
			rec, err := c.Restore(sw12)
			if err != nil {
				t.Fatalf("cycle %d Restore: %v", i, err)
			}
			if len(rec.Dead) != 0 {
				t.Fatalf("cycle %d: dead links remain after restore: %v", i, rec.Dead)
			}
			if len(rec.ShedTCT) != 0 || len(rec.ShedBE) != 0 {
				t.Fatalf("cycle %d: restore kept streams shed: %v %v", i, rec.ShedTCT, rec.ShedBE)
			}
		}
		_, res, _ := c.Deployed()
		if !schedulesEqual(orig.Schedule, res.Schedule) {
			t.Fatalf("%d flap cycles drifted the schedule", cycles)
		}
	}
}

// flapRun is one simulation of the ring flap scenario: two down/up cycles
// on a non-ECT ring link, each recovered live by the controller after a
// detection delay.
type flapRun struct {
	cp                   *core.Problem
	res                  *core.Result
	ctrl                 *faults.Controller
	raw                  *sim.Results
	lastUp, lastRecovery time.Duration
}

func runFlap(t *testing.T) flapRun {
	t.Helper()
	scen, err := experiments.NewRingScenario(0.20, experiments.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	cp := scen.Problem().Core()
	res, gcls := deploy(t, cp)
	ctrl, err := faults.NewController(cp, res, gcls, scen.BE)
	if err != nil {
		t.Fatal(err)
	}

	// The ECT runs D1->D5 over SW1->SW2->SW3; flap a ring link off its path.
	flap := model.LinkID{From: "SW3", To: "SW4"}
	const (
		cycles   = 2
		detect   = 10 * time.Millisecond
		duration = 3 * time.Second
	)
	var fl []sim.Fault
	var lastUp time.Duration
	for i := 0; i < cycles; i++ {
		down := time.Duration(i+1) * 600 * time.Millisecond
		up := down + 250*time.Millisecond
		fl = append(fl,
			sim.Fault{At: down, Kind: sim.FaultLinkDown, Link: flap},
			sim.Fault{At: up, Kind: sim.FaultLinkUp, Link: flap})
		lastUp = up
	}
	var recErr error
	var lastRecovery time.Duration
	onFault := func(s *sim.Simulator, f sim.Fault) {
		kind := f.Kind
		s.After(detect, func() {
			if recErr != nil {
				return
			}
			var rec *faults.Recovery
			var err error
			if kind == sim.FaultLinkDown {
				rec, err = ctrl.Fail(f.Link)
			} else {
				rec, err = ctrl.Restore(f.Link)
			}
			if err == nil {
				err = s.Reprogram(rec.Result.Schedule, rec.GCLs, rec.ShedSet())
			}
			if err != nil {
				recErr = err
				return
			}
			lastRecovery = s.Now()
		})
	}

	traffic := make([]sim.ECTTraffic, 0, len(scen.ECT))
	for _, e := range scen.ECT {
		traffic = append(traffic, sim.ECTTraffic{Stream: e, Priority: model.PriorityECT})
	}
	s, err := sim.New(sim.Config{
		Network:  scen.Network,
		Schedule: res.Schedule,
		GCLs:     gcls,
		ECT:      traffic,
		Duration: duration,
		Seed:     experiments.DefaultSeed,
		Faults:   fl,
		OnFault:  onFault,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if recErr != nil {
		t.Fatalf("recovery: %v", recErr)
	}
	return flapRun{cp: cp, res: res, ctrl: ctrl, raw: raw, lastUp: lastUp, lastRecovery: lastRecovery}
}

// TestFlapSimulationDeterministic repeats the flap scenario, whose live
// recoveries Reprogram every port mid-run, and requires one Results hash:
// the wakes a Reprogram schedules take their places in the event order in
// link order, not in a map's iteration order.
func TestFlapSimulationDeterministic(t *testing.T) {
	var want [sha256.Size]byte
	for i := 0; i < 10; i++ {
		got := sha256.Sum256(runFlap(t).raw.Canonical())
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d: Results hash %x, run 0 had %x", i, got, want)
		}
	}
}

// TestFlapSimulationConverges drives down/up cycles on a non-ECT ring link
// through the simulator with live recovery: after the final restore, TCT
// deadline misses stop and ECT latencies stay within the original bound.
func TestFlapSimulationConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replan simulation")
	}
	run := runFlap(t)
	cp, res, ctrl, raw := run.cp, run.res, run.ctrl, run.raw
	lastUp, lastRecovery := run.lastUp, run.lastRecovery
	origBound, err := core.ECTWorstCaseBound(cp.Network, res, "ect")
	if err != nil {
		t.Fatal(err)
	}
	if lastRecovery < lastUp {
		t.Fatalf("final restore never recovered (last recovery %v, last up %v)", lastRecovery, lastUp)
	}

	// Post-final-restore: zero TCT deadline misses.
	settle := lastRecovery + 25*time.Millisecond
	if misses := faults.MissTimes(raw, cp.TCT, settle); len(misses) != 0 {
		t.Fatalf("%d TCT deadline misses after the final restore (first at %v)", len(misses), misses[0])
	}
	// ECT worst case after convergence stays within the original bound.
	lats := raw.Latencies("ect")
	var worst time.Duration
	var samples int
	for i, at := range raw.DeliveryTimes("ect") {
		if at <= settle {
			continue
		}
		samples++
		if lats[i] > worst {
			worst = lats[i]
		}
	}
	if samples == 0 {
		t.Fatal("no ECT deliveries after the final restore")
	}
	if worst > origBound {
		t.Fatalf("post-restore ECT worst %v exceeds original bound %v", worst, origBound)
	}
	// The deployment is back to the original plan bit for bit.
	_, finalRes, _ := ctrl.Deployed()
	if !schedulesEqual(res.Schedule, finalRes.Schedule) {
		t.Fatal("final deployment differs from the original plan")
	}
}
