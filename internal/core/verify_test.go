package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"etsn/internal/model"
)

// brokenSchedule returns a valid Fig. 4 result plus direct access to its
// slots for mutation.
func scheduledFig4(t *testing.T) (*model.Network, *Result) {
	t.Helper()
	n := fig2Network(t)
	p := fig4Problem(t, n)
	p.Opts.Backend = BackendPlacer
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return n, res
}

// mutateSlot rewrites one slot of the schedule in place.
func mutateSlot(t *testing.T, res *Result, stream model.StreamID, link model.LinkID, idx int, f func(*model.FrameSlot)) {
	t.Helper()
	slots := res.Schedule.SlotsOn(link)
	for i := range slots {
		if slots[i].Stream == stream && slots[i].Index == idx {
			f(&slots[i])
			res.Schedule.Sort()
			return
		}
	}
	t.Fatalf("slot %s/%d not found on %s", stream, idx, link)
}

func wantViolation(t *testing.T, n *model.Network, res *Result, kind string) {
	t.Helper()
	vs := Verify(n, res)
	for _, v := range vs {
		if v.Kind == kind {
			if !strings.Contains(v.String(), kind) {
				t.Fatalf("String() does not mention kind: %s", v)
			}
			return
		}
	}
	t.Fatalf("no %q violation in %v", kind, vs)
}

func TestVerifyDetectsBounds(t *testing.T) {
	n, res := scheduledFig4(t)
	link := model.LinkID{From: "D1", To: "SW1"}
	mutateSlot(t, res, "s1", link, 0, func(fs *model.FrameSlot) { fs.Offset = fs.Period })
	wantViolation(t, n, res, "bounds")
}

func TestVerifyDetectsOrder(t *testing.T) {
	n, res := scheduledFig4(t)
	link := model.LinkID{From: "D1", To: "SW1"}
	// Move frame 1 before frame 0.
	mutateSlot(t, res, "s1", link, 1, func(fs *model.FrameSlot) { fs.Offset = 0 })
	vs := Verify(n, res)
	found := false
	for _, v := range vs {
		if v.Kind == "order" || v.Kind == "overlap" || v.Kind == "adjacent" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ordering-class violation in %v", vs)
	}
}

func TestVerifyDetectsOverlap(t *testing.T) {
	n, res := scheduledFig4(t)
	link := model.LinkID{From: "SW1", To: "D3"}
	// Put s2's slot on top of s1's first slot on the shared output link.
	s1 := res.Schedule.StreamSlots("s1", link)
	mutateSlot(t, res, "s2", link, 0, func(fs *model.FrameSlot) { fs.Offset = s1[0].Offset })
	wantViolation(t, n, res, "overlap")
}

// verifyOverlapsPairwise is the overlap check as it was before the sweep:
// every pair of slots on a link, FrameSlot.Overlaps on each. It stays here
// as the reference the sweep is held to.
func verifyOverlapsPairwise(res *Result) []Violation {
	var out []Violation
	sched := res.Schedule
	for _, lid := range sched.Links() {
		slots := sched.SlotsOn(lid)
		for i := 0; i < len(slots); i++ {
			for j := i + 1; j < len(slots); j++ {
				a, b := &slots[i], &slots[j]
				if a.Stream == b.Stream {
					continue
				}
				sa, sb := sched.Streams[a.Stream], sched.Streams[b.Stream]
				if sa == nil || sb == nil {
					out = append(out, Violation{Kind: "overlap", Stream: a.Stream, Link: lid,
						Detail: "slot references unknown stream"})
					continue
				}
				if slotsCanOverlap(sa, sb, a.Reserve, b.Reserve, res.SharedReserves) {
					continue
				}
				if a.Overlaps(b) {
					out = append(out, Violation{Kind: "overlap", Stream: a.Stream, Link: lid,
						Detail: fmt.Sprintf("frame %d overlaps stream %s frame %d", a.Index, b.Stream, b.Index)})
				}
			}
		}
	}
	return out
}

// TestVerifyOverlapsSweepMatchesPairwise holds the sweep to the pairwise
// reference on random slot tables: mixed periods (so pairs meet through
// several instances), offsets and lengths that run past the period or are
// degenerate, every combination of the share / reserve / possibility flags
// the overlap exception reads, slots of streams the schedule does not
// define, sorted and unsorted tables. Same violations, same order.
func TestVerifyOverlapsSweepMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	periods := []int64{100, 200, 300, 400, 150}
	links := []model.LinkID{{From: "A", To: "B"}, {From: "B", To: "C"}, {From: "B", To: "A"}}
	var clean, violated, unknown int
	for round := 0; round < 600; round++ {
		sched := model.NewSchedule()
		var ids []model.StreamID
		for k := 0; k < 2+rng.Intn(10); k++ {
			s := &model.Stream{ID: model.StreamID(fmt.Sprintf("s%02d", k)), Type: model.StreamDet,
				Share: rng.Intn(2) == 0, Parent: model.StreamID(fmt.Sprintf("e%d", rng.Intn(2)))}
			if rng.Intn(3) == 0 {
				s.Type, s.Share = model.StreamProb, false
			}
			ids = append(ids, s.ID)
			if rng.Intn(12) != 0 { // else: slots of a stream nobody defined
				sched.AddStream(s)
			}
		}
		// Few slots spread thin stay clean; many on a short table collide.
		density := 1 + rng.Intn(40)
		for _, lid := range links[:1+rng.Intn(len(links))] {
			classes := periods[:1+rng.Intn(len(periods))]
			for k := 0; k < density; k++ {
				period := classes[rng.Intn(len(classes))]
				fs := model.FrameSlot{
					Stream: ids[rng.Intn(len(ids))], Link: lid, Index: rng.Intn(4),
					Offset: rng.Int63n(period+30) - 10, Length: rng.Int63n(25), Period: period,
					Epoch: rng.Int63n(2), Reserve: rng.Intn(3) == 0,
				}
				if rng.Intn(8) == 0 {
					fs.Length = -fs.Length
				}
				sched.AddSlot(fs)
			}
		}
		if rng.Intn(4) != 0 {
			sched.Sort()
		}
		res := &Result{Schedule: sched, SharedReserves: rng.Intn(2) == 0}

		want := verifyOverlapsPairwise(res)
		got := verifyOverlaps(res)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: sweep reports %d violations, pairwise %d\n sweep    %v\n pairwise %v",
				round, len(got), len(want), got, want)
		}
		if again := verifyOverlaps(res); !reflect.DeepEqual(again, got) {
			t.Fatalf("round %d: the sweep is not deterministic", round)
		}
		switch {
		case len(want) == 0:
			clean++
		case strings.Contains(fmt.Sprint(want), "unknown stream"):
			unknown++
		default:
			violated++
		}
	}
	if clean < 20 || violated < 20 || unknown < 20 {
		t.Fatalf("generator is lopsided: %d clean, %d overlapping, %d with unknown streams", clean, violated, unknown)
	}
}

func TestVerifyDetectsAdjacent(t *testing.T) {
	n, res := scheduledFig4(t)
	down := model.LinkID{From: "SW1", To: "D3"}
	mutateSlot(t, res, "s2", down, 0, func(fs *model.FrameSlot) { fs.Offset = 0; fs.Epoch = 0 })
	wantViolation(t, n, res, "adjacent")
}

func TestVerifyDetectsE2E(t *testing.T) {
	n, res := scheduledFig4(t)
	res.Schedule.Streams["s2"].E2E = time.Microsecond
	wantViolation(t, n, res, "e2e")
}

func TestVerifyDetectsOccurrence(t *testing.T) {
	n := fig2Network(t)
	res, err := Schedule(fig6Problem(t, n))
	if err != nil {
		t.Fatal(err)
	}
	ps3 := ProbStreamID("s2", 3)
	first := model.LinkID{From: "D2", To: "SW1"}
	mutateSlot(t, res, ps3, first, 0, func(fs *model.FrameSlot) { fs.Offset = 0; fs.Epoch = 0 })
	wantViolation(t, n, res, "occurrence")
}

func TestVerifyDetectsPriority(t *testing.T) {
	n, res := scheduledFig4(t)
	res.Schedule.Streams["s1"].Priority = model.PriorityECT
	wantViolation(t, n, res, "priority")
}

func TestVerifyAllowsSharedOverlap(t *testing.T) {
	// The Fig. 6 schedule has probabilistic slots on top of shared TCT
	// slots and same-parent possibilities overlapping; Verify must accept.
	n := fig2Network(t)
	res, err := Schedule(fig6Problem(t, n))
	if err != nil {
		t.Fatal(err)
	}
	verifyClean(t, n, res)
}

func TestECTWorstCaseBoundErrors(t *testing.T) {
	n, res := scheduledFig4(t)
	if _, err := ECTWorstCaseBound(n, res, "nope"); err == nil {
		t.Fatal("expected error for unknown parent")
	}
	if _, err := TCTWorstCase(n, res, "nope"); err == nil {
		t.Fatal("expected error for unknown stream")
	}
}

// lineNetwork builds D1-SW1-SW2-...-SWk-D2.
func lineNetwork(t testing.TB, switches int) *model.Network {
	n := model.NewNetwork()
	if err := n.AddDevice("D1"); err != nil {
		t.Fatal(err)
	}
	if err := n.AddDevice("D2"); err != nil {
		t.Fatal(err)
	}
	prev := model.NodeID("D1")
	for i := 1; i <= switches; i++ {
		sw := model.NodeID("SW" + string(rune('0'+i)))
		if err := n.AddSwitch(sw); err != nil {
			t.Fatal(err)
		}
		if err := n.AddLink(prev, sw, model.LinkConfig{Bandwidth: 100_000_000}); err != nil {
			t.Fatal(err)
		}
		prev = sw
	}
	if err := n.AddLink(prev, "D2", model.LinkConfig{Bandwidth: 100_000_000}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestQuickPlacerSchedulesVerify generates random problems on the Fig. 2
// topology; every schedule the placer accepts must pass the verifier, and
// the worst-case analyses must stay within deadlines.
func TestQuickPlacerSchedulesVerify(t *testing.T) {
	n := fig2Network(t)
	devices := []model.NodeID{"D1", "D2", "D3"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		periodSet := []time.Duration{620 * time.Microsecond, 1240 * time.Microsecond}
		var tct []*model.Stream
		nTCT := 1 + rng.Intn(4)
		for i := 0; i < nTCT; i++ {
			src := devices[rng.Intn(len(devices))]
			dst := devices[rng.Intn(len(devices))]
			if src == dst {
				continue
			}
			path, err := n.ShortestPath(src, dst)
			if err != nil {
				return false
			}
			period := periodSet[rng.Intn(len(periodSet))]
			tct = append(tct, &model.Stream{
				ID:          model.StreamID("t" + string(rune('0'+i))),
				Path:        path,
				E2E:         2 * period,
				LengthBytes: (1 + rng.Intn(2)) * model.MTUBytes,
				Period:      period,
				Type:        model.StreamDet,
				Share:       rng.Intn(2) == 0,
			})
		}
		var ects []*model.ECT
		if rng.Intn(2) == 0 {
			src := devices[rng.Intn(len(devices))]
			dst := devices[rng.Intn(len(devices))]
			if src != dst {
				path, err := n.ShortestPath(src, dst)
				if err != nil {
					return false
				}
				ects = append(ects, &model.ECT{
					ID:            "e0",
					Path:          path,
					E2E:           2480 * time.Microsecond,
					LengthBytes:   model.MTUBytes,
					MinInterevent: 1240 * time.Microsecond,
				})
			}
		}
		if len(tct) == 0 && len(ects) == 0 {
			return true
		}
		p := &Problem{Network: n, TCT: tct, ECT: ects,
			Opts: Options{NProb: 1 + rng.Intn(6), Backend: BackendPlacer}}
		res, err := Schedule(p)
		if err != nil {
			return true // infeasible random instances are fine
		}
		if vs := Verify(n, res); len(vs) != 0 {
			t.Logf("seed %d violations: %v", seed, vs)
			return false
		}
		for _, s := range tct {
			wc, err := TCTWorstCase(n, res, s.ID)
			if err != nil || wc > s.E2E {
				t.Logf("seed %d: stream %s wc %v e2e %v err %v", seed, s.ID, wc, s.E2E, err)
				return false
			}
		}
		for _, e := range ects {
			b, err := ECTScheduleWorstCase(n, res, e.ID)
			if err != nil || b > e.E2E {
				t.Logf("seed %d: ect %s schedule worst case %v e2e %v err %v", seed, e.ID, b, e.E2E, err)
				return false
			}
			rb, err := ECTWorstCaseBound(n, res, e.ID)
			if err != nil || rb < b {
				t.Logf("seed %d: ect %s runtime bound %v below schedule term %v err %v", seed, e.ID, rb, b, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSMTAgreesWithPlacer: when the placer finds a schedule, the SMT
// backend must also report SAT (placer feasibility implies SMT feasibility
// only for epoch-0 schedules, so restrict to single-hop-safe instances).
func TestQuickSMTAgreesWithPlacer(t *testing.T) {
	n := fig2Network(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		period := 1240 * time.Microsecond
		var tct []*model.Stream
		for i := 0; i < 1+rng.Intn(3); i++ {
			src := []model.NodeID{"D1", "D2", "D3"}[rng.Intn(3)]
			dst := []model.NodeID{"D1", "D2", "D3"}[rng.Intn(3)]
			if src == dst {
				continue
			}
			path, _ := n.ShortestPath(src, dst)
			tct = append(tct, &model.Stream{
				ID:          model.StreamID("t" + string(rune('0'+i))),
				Path:        path,
				E2E:         period,
				LengthBytes: model.MTUBytes,
				Period:      period,
				Type:        model.StreamDet,
			})
		}
		if len(tct) == 0 {
			return true
		}
		p := &Problem{Network: n, TCT: tct, Opts: Options{Backend: BackendPlacer}}
		if _, err := Schedule(p); err != nil {
			return true
		}
		p.Opts.Backend = BackendSMT
		p.Opts.MaxDecisions = 100000
		res, err := Schedule(p)
		if err != nil {
			t.Logf("seed %d: placer SAT but SMT err %v", seed, err)
			return false
		}
		return len(Verify(n, res)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
