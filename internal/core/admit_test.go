package core

import (
	"errors"
	"testing"
	"time"

	"etsn/internal/model"
)

// admitBase schedules a testbed-like problem with shared reserves on, as a
// deployment to admit into.
func admitBase(t *testing.T) (*model.Network, *Problem, *Result) {
	t.Helper()
	n := fig2Network(t)
	cycle := 4 * time.Millisecond
	p := &Problem{
		Network: n,
		TCT: []*model.Stream{
			{ID: "s1", Path: mustPath(t, n, "D1", "D3"), E2E: 2 * cycle,
				LengthBytes: 3 * model.MTUBytes, Period: cycle, Type: model.StreamDet, Share: true},
		},
		ECT: []*model.ECT{
			{ID: "e1", Path: mustPath(t, n, "D2", "D3"), E2E: cycle,
				LengthBytes: model.MTUBytes, MinInterevent: cycle},
		},
		Opts: Options{NProb: 8, Backend: BackendPlacer, SharedReserves: true},
	}
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	verifyClean(t, n, res)
	return n, p, res
}

func TestAdmitECT(t *testing.T) {
	n, p, prev := admitBase(t)
	newECT := &model.ECT{ID: "e2", Path: mustPath(t, n, "D1", "D2"), E2E: 4 * time.Millisecond,
		LengthBytes: model.MTUBytes, MinInterevent: 4 * time.Millisecond}
	res, err := Admit(p, prev, nil, []*model.ECT{newECT})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	verifyClean(t, n, res)
	if !SlotsUnchanged(prev.Schedule, res.Schedule) {
		t.Fatal("admission moved deployed slots")
	}
	// The new ECT has possibilities and a worst-case bound within deadline.
	wc, err := ECTScheduleWorstCase(n, res, "e2")
	if err != nil {
		t.Fatalf("ECTScheduleWorstCase: %v", err)
	}
	if wc > newECT.E2E {
		t.Fatalf("admitted ECT schedule worst case %v exceeds %v", wc, newECT.E2E)
	}
	// The old ECT's analysis is untouched.
	if _, err := ECTScheduleWorstCase(n, res, "e1"); err != nil {
		t.Fatalf("old ECT lost: %v", err)
	}
}

func TestAdmitNonSharingTCT(t *testing.T) {
	n, p, prev := admitBase(t)
	s := &model.Stream{ID: "s9", Path: mustPath(t, n, "D3", "D1"), E2E: 8 * time.Millisecond,
		LengthBytes: model.MTUBytes, Period: 4 * time.Millisecond, Type: model.StreamDet}
	res, err := Admit(p, prev, []*model.Stream{s}, nil)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	verifyClean(t, n, res)
	if !SlotsUnchanged(prev.Schedule, res.Schedule) {
		t.Fatal("admission moved deployed slots")
	}
	wc, err := TCTWorstCase(n, res, "s9")
	if err != nil || wc > s.E2E {
		t.Fatalf("admitted TCT worst case %v (err %v)", wc, err)
	}
}

func TestAdmitRejectsSharingTCT(t *testing.T) {
	n, p, prev := admitBase(t)
	s := &model.Stream{ID: "s9", Path: mustPath(t, n, "D3", "D1"), E2E: 8 * time.Millisecond,
		LengthBytes: model.MTUBytes, Period: 4 * time.Millisecond, Type: model.StreamDet, Share: true}
	if _, err := Admit(p, prev, []*model.Stream{s}, nil); !errors.Is(err, ErrNeedsReplan) {
		t.Fatalf("err = %v, want ErrNeedsReplan", err)
	}
}

func TestAdmitRejectsECTWithoutSharedReserves(t *testing.T) {
	n := fig2Network(t)
	p := fig6Problem(t, n) // strict per-stream reservations
	prev, err := Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	newECT := &model.ECT{ID: "e9", Path: mustPath(t, n, "D1", "D2"), E2E: 620 * 5 * time.Microsecond,
		LengthBytes: model.MTUBytes, MinInterevent: 620 * 5 * time.Microsecond}
	if _, err := Admit(p, prev, nil, []*model.ECT{newECT}); !errors.Is(err, ErrNeedsReplan) {
		t.Fatalf("err = %v, want ErrNeedsReplan", err)
	}
}

func TestAdmitNoChangeReturnsPrev(t *testing.T) {
	_, p, prev := admitBase(t)
	res, err := Admit(p, prev, nil, nil)
	if err != nil || res != prev {
		t.Fatalf("Admit no-op = %v, %v", res, err)
	}
}

func TestAdmitInfeasibleWhenFull(t *testing.T) {
	// Saturate D1->SW1, then try to admit another stream over it.
	n := fig2Network(t)
	cycle := 2 * 124 * time.Microsecond
	p := &Problem{
		Network: n,
		TCT: []*model.Stream{
			{ID: "a", Path: mustPath(t, n, "D1", "D3"), E2E: 2 * cycle,
				LengthBytes: 2 * model.MTUBytes, Period: cycle, Type: model.StreamDet},
		},
		Opts: Options{Backend: BackendPlacer, SharedReserves: true},
	}
	prev, err := Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	s := &model.Stream{ID: "b", Path: mustPath(t, n, "D1", "D2"), E2E: 2 * cycle,
		LengthBytes: model.MTUBytes, Period: cycle, Type: model.StreamDet}
	if _, err := Admit(p, prev, []*model.Stream{s}, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestAdmitNilPrev(t *testing.T) {
	_, p, _ := admitBase(t)
	if _, err := Admit(p, nil, nil, nil); !errors.Is(err, ErrInvalidProblem) {
		t.Fatalf("err = %v, want ErrInvalidProblem", err)
	}
}

func TestSlotsUnchangedDetectsMutation(t *testing.T) {
	_, _, prev := admitBase(t)
	clone := prev.Schedule.Clone()
	if !SlotsUnchanged(prev.Schedule, clone) {
		t.Fatal("identical schedules reported changed")
	}
	// Mutate one slot in the clone.
	lid := clone.Links()[0]
	clone.SlotsOn(lid)[0].Offset++
	if SlotsUnchanged(prev.Schedule, clone) {
		t.Fatal("mutation not detected")
	}
}

// TestAdmitRejectsStraddlingDeployedSlot: the slot table's overlap test
// assumes every slot lies inside its period, so a deployed slot before
// offset 0 or past its period's end is an invalid input, not a conflict.
func TestAdmitRejectsStraddlingDeployedSlot(t *testing.T) {
	n, p, prev := admitBase(t)
	s := &model.Stream{ID: "s9", Path: mustPath(t, n, "D3", "D1"), E2E: 8 * time.Millisecond,
		LengthBytes: model.MTUBytes, Period: 4 * time.Millisecond, Type: model.StreamDet}
	for name, move := range map[string]func(fs *model.FrameSlot){
		"negative offset": func(fs *model.FrameSlot) { fs.Offset = -1 },
		"past the period": func(fs *model.FrameSlot) { fs.Offset = fs.Period - fs.Length + 1 },
	} {
		bad := *prev
		bad.Schedule = prev.Schedule.Clone()
		move(&bad.Schedule.SlotsOn(bad.Schedule.Links()[0])[0])
		if _, err := Admit(p, &bad, []*model.Stream{s}, nil); !errors.Is(err, ErrInvalidProblem) {
			t.Errorf("%s: err = %v, want ErrInvalidProblem", name, err)
		}
	}
}
