package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"etsn/internal/core"
	"etsn/internal/experiments"
	"etsn/internal/model"
	"etsn/internal/obs"
)

// mtuTx is one MTU frame's transmission time on a 100 Mb/s link, in whole
// scheduling units.
const mtuTx = 124 * time.Microsecond

// lineProblem is two streams from D2 over the SW1->SW2 trunk of the
// random-scenario network that only the first-fit placer closes: the second
// stream has to wrap into the next period, which the SMT formulation cannot
// express and the ALAP placer finds no slot for.
func lineProblem(t *testing.T) *core.Problem {
	n, _ := core.RandomProblem(t, 1)
	p := &core.Problem{Network: n}
	for _, s := range []struct {
		id     model.StreamID
		dst    model.NodeID
		period time.Duration
		frames int
	}{{"s0", "D3", 4 * mtuTx, 2}, {"s1", "D4", 8 * mtuTx, 3}} {
		path, err := n.ShortestPath("D2", s.dst)
		if err != nil {
			t.Fatal(err)
		}
		p.TCT = append(p.TCT, &model.Stream{ID: s.id, Path: path, Period: s.period, E2E: s.period,
			LengthBytes: s.frames * model.MTUBytes, Type: model.StreamDet})
	}
	return p
}

// tightProblem is fifteen streams into D1 and D2 of the random-scenario
// network with end-to-end budgets down to 0.55 periods, minimized from draw
// 789 of the PR 17 dominance sweep (DESIGN.md §15). Only the ALAP placer
// closes it in bounded time: first-fit starts s23 at the earliest free slot
// of its uncontended first link and finds the congested last link free only
// 5364 us later, past the 4440 us budget, while ALAP packs every hop back
// from the deadline.
func tightProblem(t *testing.T) *core.Problem {
	n, _ := core.RandomProblem(t, 1)
	p := &core.Problem{Network: n}
	for _, s := range []struct {
		id       model.StreamID
		src, dst model.NodeID
		periodMs int
		e2eUs    int
		frames   int
		share    bool
	}{
		{"s00", "D4", "D1", 8, 4552, 3, false}, {"s03", "D4", "D2", 4, 2778, 3, false},
		{"s04", "D4", "D1", 4, 5496, 1, false}, {"s06", "D3", "D1", 4, 4949, 3, false},
		{"s11", "D3", "D1", 4, 3686, 2, false}, {"s13", "D3", "D1", 4, 5262, 2, false},
		{"s14", "D4", "D2", 4, 2372, 1, true}, {"s15", "D3", "D1", 4, 6023, 3, true},
		{"s19", "D3", "D1", 4, 6127, 2, false}, {"s23", "D4", "D1", 8, 4440, 2, false},
		{"s24", "D3", "D1", 4, 7032, 3, false}, {"s28", "D3", "D1", 4, 5278, 1, true},
		{"s36", "D3", "D1", 4, 4423, 1, false}, {"s42", "D3", "D2", 8, 7391, 3, true},
		{"s43", "D4", "D2", 8, 8420, 3, true},
	} {
		path, err := n.ShortestPath(s.src, s.dst)
		if err != nil {
			t.Fatal(err)
		}
		p.TCT = append(p.TCT, &model.Stream{ID: s.id, Path: path,
			Period: time.Duration(s.periodMs) * time.Millisecond, E2E: time.Duration(s.e2eUs) * time.Microsecond,
			LengthBytes: s.frames * model.MTUBytes, Type: model.StreamDet, Share: s.share})
	}
	return p
}

// TestGreedyClosesTightDeadlines is the instance that keeps the ALAP placer
// in the default cascade: the first-fit placer gives up on it, greedy ships
// a verifier-clean plan, and the cascade therefore stops at greedy instead
// of falling through to the exact solver.
func TestGreedyClosesTightDeadlines(t *testing.T) {
	p := tightProblem(t)
	p.Opts.Backend = core.BackendPlacer
	var pf *core.PlaceFailure
	if _, err := core.Schedule(p); !errors.As(err, &pf) || pf.Stream != "s23" {
		t.Fatalf("placer: %v, want a PlaceFailure on s23", err)
	}
	for _, b := range []core.Backend{core.BackendGreedy, core.BackendCascade} {
		p := tightProblem(t)
		p.Opts.Backend = b
		res, err := core.Schedule(p)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if vs := core.Verify(p.Network, res); len(vs) != 0 {
			t.Fatalf("%v: %d violations, first: %s", b, len(vs), vs[0])
		}
		if got, fp := experiments.PlanFingerprint(res), "d9e08a1e828cc8fd"; got != fp || res.BackendUsed != core.BackendGreedy {
			t.Errorf("%v: %v plan %s, want greedy plan %s", b, res.BackendUsed, got, fp)
		}
	}
}

// TestCascadeFingerprintsPinned pins the cascade's plans to the ones the
// concurrent race emitted at the commit before it (31b930b): running the
// backends in order and stopping at the first verified plan is the race's
// lowest-priority-index-wins rule, so every plan must be byte-identical.
func TestCascadeFingerprintsPinned(t *testing.T) {
	// The default order on the scenarios of TestBackendsVerifyRandomScenarios.
	want := []string{
		"d64c5bc14fb4726f", "756ca8ce2b29f574", "ac7871d21cfd44ca", "a033a626a6dca3c8",
		"01531c6a3e1bd82e", "f05f99a30826dd0f", "f91f4fcd9190c901", "09a3d16505f8adbf",
		"ba7d1eacf0734841", "e3abfbdd09715b2d", "7534e2bcfad74e21", "1a725f8104a3101a",
	}
	for i, fp := range want {
		seed := int64(i + 1)
		_, p := core.RandomProblem(t, seed)
		p.Opts.Backend = core.BackendCascade
		p.Opts.MaxDecisions = 500_000
		res, err := core.Schedule(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := experiments.PlanFingerprint(res); got != fp || res.BackendUsed != core.BackendPlacer {
			t.Errorf("seed %d: %v plan %s, want placer plan %s", seed, res.BackendUsed, got, fp)
		}
	}
	// Orders whose head fails: the plan is the placer's from wherever it sits.
	for _, order := range [][]core.Backend{
		{core.BackendSMTIncremental, core.BackendPlacer},
		{core.BackendGreedy, core.BackendPlacer},
		{core.BackendSMTIncremental, core.BackendGreedy, core.BackendPlacer},
	} {
		p := lineProblem(t)
		p.Opts.Backend = core.BackendCascade
		p.Opts.Cascade = order
		res, err := core.Schedule(p)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if got, fp := experiments.PlanFingerprint(res), "62f3bcc32b848702"; got != fp || res.BackendUsed != core.BackendPlacer {
			t.Errorf("order %v: %v plan %s, want placer plan %s", order, res.BackendUsed, got, fp)
		}
	}
}

// solves reads how many times each backend ran from the registry.
func solves(reg *obs.Registry, b core.Backend) int64 {
	return reg.Counter(`etsn_backend_solves_total{backend="` + b.String() + `"}`).Value()
}

// TestCascadeBudget: a context that is done stops the cascade — before the
// first stage or between two — with ErrBudget and without running what is
// left; a deadline is split so that a stage grinding to its budget leaves
// the exact backend behind it the time to prove infeasibility.
func TestCascadeBudget(t *testing.T) {
	// The Sec. VI-C instance at 75 % load: the incremental SMT backend
	// grinds on it for seconds (the placers close it in milliseconds).
	dense := func(order ...core.Backend) *core.Problem {
		scen, err := experiments.NewSimulationScenario(0.75, 5, 1, experiments.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		p := scen.Problem().Core()
		p.Opts.Backend = core.BackendCascade
		p.Opts.Cascade = order
		p.Opts.Obs = obs.NewRegistry()
		return p
	}

	t.Run("cancelled before the call", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		p := dense()
		if _, err := core.ScheduleContext(ctx, p); !errors.Is(err, core.ErrBudget) {
			t.Fatalf("err = %v, want ErrBudget", err)
		}
		for _, b := range core.DefaultCascade() {
			if n := solves(p.Opts.Obs, b); n != 0 {
				t.Errorf("%v ran %d time(s) under a cancelled context", b, n)
			}
		}
	})

	t.Run("cancelled between two stages", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		p := dense(core.BackendSMTIncremental, core.BackendPlacer)
		// Lands inside the incremental solver's seconds-long sequence of
		// re-solves (on a starved host, before it: then this is the case
		// above again).
		time.AfterFunc(50*time.Millisecond, cancel)
		if _, err := core.ScheduleContext(ctx, p); !errors.Is(err, core.ErrBudget) {
			t.Fatalf("err = %v, want ErrBudget", err)
		}
		if n := solves(p.Opts.Obs, core.BackendPlacer); n != 0 {
			t.Errorf("placer ran %d time(s) after the context was cancelled", n)
		}
	})

	t.Run("deadline leaves the exact stage its verdict", func(t *testing.T) {
		// Two streams overfilling D1's uplink come last, so the incremental
		// SMT backend would reach them only after tens of seconds of
		// re-solves, while the monolithic solve behind it sees the whole
		// system at once and proves it infeasible in a fraction of a second.
		p := dense(core.BackendSMTIncremental, core.BackendSMT)
		path, err := p.Network.ShortestPath("D1", "D2")
		if err != nil {
			t.Fatal(err)
		}
		period := time.Millisecond // 8 MTU frames fit, the two streams carry 9
		var doomed []*model.Stream
		for i, frames := range []int{5, 4} {
			doomed = append(doomed, &model.Stream{ID: model.StreamID("doomed" + string(rune('A'+i))),
				Path: path, Period: period, E2E: period,
				LengthBytes: frames * model.MTUBytes, Type: model.StreamDet})
		}
		p.TCT = append(p.TCT, doomed...)
		p.Opts.Timeout = 3 * time.Second
		start := time.Now()
		_, err = core.Schedule(p)
		if !errors.Is(err, core.ErrInfeasible) {
			t.Fatalf("err = %v after %v, want the exact stage's ErrInfeasible", err, time.Since(start))
		}
		if i, s := solves(p.Opts.Obs, core.BackendSMTIncremental), solves(p.Opts.Obs, core.BackendSMT); i != 1 || s != 1 {
			t.Errorf("smt-incremental ran %d time(s), smt %d; want 1 and 1", i, s)
		}
	})
}
