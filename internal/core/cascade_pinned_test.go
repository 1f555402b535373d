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
