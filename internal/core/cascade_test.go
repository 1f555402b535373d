package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"etsn/internal/model"
	"etsn/internal/obs"
)

// allConcreteBackends are the backends a cascade may contain.
var allConcreteBackends = []Backend{
	BackendPlacer, BackendGreedy,
	BackendSMT, BackendSMTIncremental,
}

func TestParseBackendRoundTrip(t *testing.T) {
	for _, b := range append([]Backend{BackendAuto, BackendCascade}, allConcreteBackends...) {
		got, err := ParseBackend(b.String())
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", b.String(), err)
		}
		if got != b {
			t.Fatalf("ParseBackend(%q) = %v, want %v", b.String(), got, b)
		}
	}
	if got, err := ParseBackend(""); err != nil || got != BackendAuto {
		t.Fatalf("ParseBackend(\"\") = %v, %v; want auto", got, err)
	}
	// Journals and configs written before the cascade carry "race".
	if got, err := ParseBackend("race"); err != nil || got != BackendCascade {
		t.Fatalf("ParseBackend(\"race\") = %v, %v; want cascade", got, err)
	}
	// A removed or unknown name is rejected with the valid ones listed.
	for _, name := range []string{"tabu", "anneal", "z3"} {
		_, err := ParseBackend(name)
		if !errors.Is(err, ErrInvalidProblem) || !strings.Contains(err.Error(), "auto|placer|greedy|smt|smt-incremental|cascade") {
			t.Fatalf("ParseBackend(%q) err = %v, want ErrInvalidProblem listing the valid names", name, err)
		}
	}
}

// TestAllBackendsVerifyFig4 checks that every backend closes the paper's
// Sec. II example with a verifier-clean schedule and reports itself.
func TestAllBackendsVerifyFig4(t *testing.T) {
	for _, b := range allConcreteBackends {
		t.Run(b.String(), func(t *testing.T) {
			n := fig2Network(t)
			p := fig4Problem(t, n)
			p.Opts.Backend = b
			res, err := Schedule(p)
			if err != nil {
				t.Fatalf("Schedule: %v", err)
			}
			verifyClean(t, n, res)
			if res.BackendUsed != b {
				t.Fatalf("BackendUsed = %v, want %v", res.BackendUsed, b)
			}
		})
	}
}

// TestHeuristicBackendsVerifyFig6 runs the heuristics on the Sec. III-B
// example (TCT sharing + expanded ECT). The SMT backends are excluded: the
// strict formulation cannot express the epoch wrap the late possibilities
// need, so they correctly report the strict problem unsatisfiable.
func TestHeuristicBackendsVerifyFig6(t *testing.T) {
	for _, b := range []Backend{BackendPlacer, BackendGreedy} {
		t.Run(b.String(), func(t *testing.T) {
			n := fig2Network(t)
			p := fig6Problem(t, n)
			p.Opts.Backend = b
			res, err := Schedule(p)
			if err != nil {
				t.Fatalf("Schedule: %v", err)
			}
			verifyClean(t, n, res)
			if res.BackendUsed != b {
				t.Fatalf("BackendUsed = %v, want %v", res.BackendUsed, b)
			}
		})
	}
}

// randomProblem derives a small random scheduling problem from the seed: a
// two-switch topology with four devices and a handful of TCT streams (plus
// sometimes an ECT), contended enough that heuristics must actually move
// streams around.
func randomProblem(t testing.TB, seed int64) (*model.Network, *Problem) {
	rng := rand.New(rand.NewSource(seed))
	n := model.NewNetwork()
	devs := []model.NodeID{"D1", "D2", "D3", "D4"}
	for _, d := range devs {
		if err := n.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, sw := range []model.NodeID{"SW1", "SW2"} {
		if err := n.AddSwitch(sw); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]model.NodeID{
		{"D1", "SW1"}, {"D2", "SW1"}, {"SW1", "SW2"}, {"D3", "SW2"}, {"D4", "SW2"},
	} {
		if err := n.AddLink(l[0], l[1], model.LinkConfig{Bandwidth: 100_000_000}); err != nil {
			t.Fatal(err)
		}
	}
	periods := []time.Duration{4 * time.Millisecond, 8 * time.Millisecond, 16 * time.Millisecond}
	p := &Problem{Network: n}
	nStreams := 3 + rng.Intn(5)
	for i := 0; i < nStreams; i++ {
		src := devs[rng.Intn(len(devs))]
		dst := devs[rng.Intn(len(devs))]
		if src == dst {
			dst = devs[(rng.Intn(len(devs)-1)+1+indexOf(devs, src))%len(devs)]
		}
		period := periods[rng.Intn(len(periods))]
		path, err := n.ShortestPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		p.TCT = append(p.TCT, &model.Stream{
			ID:          model.StreamID("s" + string(rune('A'+i))),
			Path:        path,
			Period:      period,
			E2E:         2 * period,
			LengthBytes: (1 + rng.Intn(3)) * model.MTUBytes,
			Type:        model.StreamDet,
			Share:       rng.Intn(2) == 0,
		})
	}
	if rng.Intn(2) == 0 {
		path, err := n.ShortestPath("D1", "D4")
		if err != nil {
			t.Fatal(err)
		}
		p.ECT = append(p.ECT, &model.ECT{
			ID:            "ect",
			Path:          path,
			E2E:           16 * time.Millisecond,
			LengthBytes:   model.MTUBytes,
			MinInterevent: 16 * time.Millisecond,
		})
	}
	p.Opts.NProb = 8
	return n, p
}

func indexOf(devs []model.NodeID, d model.NodeID) int {
	for i, x := range devs {
		if x == d {
			return i
		}
	}
	return -1
}

// TestBackendsVerifyRandomScenarios is the property test: on randomized
// problems, every backend either produces a plan with zero verifier
// violations or fails with a clean give-up/infeasibility error — never an
// invalid schedule, never an unclassified error.
func TestBackendsVerifyRandomScenarios(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, b := range allConcreteBackends {
			n, p := randomProblem(t, seed)
			p.Opts.Backend = b
			p.Opts.MaxDecisions = 500_000
			res, err := Schedule(p)
			if err != nil {
				if !errors.Is(err, ErrInfeasible) && !errors.Is(err, ErrBudget) {
					t.Fatalf("seed %d backend %v: unclassified error %v", seed, b, err)
				}
				continue
			}
			if vs := Verify(n, res); len(vs) != 0 {
				t.Fatalf("seed %d backend %v: %d violations, first: %s", seed, b, len(vs), vs[0])
			}
		}
	}
}

// The TestRace* tests below predate the cascade and keep their names: the
// properties they check — winner by priority, the error chain — are the
// ones the cascade had to preserve.

// TestRaceDeterministic: the cascade winner and its schedule are
// byte-stable across runs at fixed priority.
func TestRaceDeterministic(t *testing.T) {
	run := func(seed int64) (*Result, error) {
		_, p := randomProblem(t, seed)
		p.Opts.Backend = BackendCascade
		return Schedule(p)
	}
	for seed := int64(1); seed <= 6; seed++ {
		a, errA := run(seed)
		b, errB := run(seed)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: outcome diverged: %v vs %v", seed, errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.BackendUsed != b.BackendUsed {
			t.Fatalf("seed %d: winner diverged: %v vs %v", seed, a.BackendUsed, b.BackendUsed)
		}
		if !reflect.DeepEqual(a.Schedule, b.Schedule) {
			t.Fatalf("seed %d: schedules diverged for winner %v", seed, a.BackendUsed)
		}
	}
}

// TestRacePriorityOrder: a single-entry cascade must be won by that entry,
// and the verified winner is the lowest-priority-index success.
func TestRacePriorityOrder(t *testing.T) {
	n := fig2Network(t)
	p := fig4Problem(t, n)
	p.Opts.Backend = BackendCascade
	p.Opts.Cascade = []Backend{BackendSMTIncremental}
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.BackendUsed != BackendSMTIncremental {
		t.Fatalf("BackendUsed = %v, want smt-incremental", res.BackendUsed)
	}
	verifyClean(t, n, res)

	p2 := fig6Problem(t, fig2Network(t))
	p2.Opts.Backend = BackendCascade
	p2.Opts.Cascade = []Backend{BackendGreedy, BackendSMT}
	res2, err := Schedule(p2)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res2.BackendUsed != BackendGreedy {
		t.Fatalf("BackendUsed = %v, want greedy (priority 0)", res2.BackendUsed)
	}
}

// TestRaceRejectsNested: BackendAuto and BackendCascade are not legal
// cascade entries.
func TestRaceRejectsNested(t *testing.T) {
	n := fig2Network(t)
	p := fig4Problem(t, n)
	p.Opts.Backend = BackendCascade
	p.Opts.Cascade = []Backend{BackendCascade}
	if _, err := Schedule(p); !errors.Is(err, ErrInvalidProblem) {
		t.Fatalf("nested cascade err = %v, want ErrInvalidProblem", err)
	}
}

// infeasibleProblem overfills one link: two non-sharing streams whose
// combined transmission time exceeds their common period.
func infeasibleProblem(t *testing.T, n *model.Network) *Problem {
	cycle := 5 * mtuTx
	return &Problem{
		Network: n,
		TCT: []*model.Stream{
			{ID: "s1", Path: mustPath(t, n, "D1", "D3"), E2E: cycle,
				LengthBytes: 3 * model.MTUBytes, Period: cycle, Type: model.StreamDet},
			{ID: "s2", Path: mustPath(t, n, "D2", "D3"), E2E: cycle,
				LengthBytes: 3 * model.MTUBytes, Period: cycle, Type: model.StreamDet},
		},
	}
}

// TestRaceInfeasibleProof: when every backend fails, an exact backend's
// infeasibility verdict is reported (not a heuristic give-up).
func TestRaceInfeasibleProof(t *testing.T) {
	n := fig2Network(t)
	p := infeasibleProblem(t, n)
	p.Opts.Backend = BackendCascade
	_, err := Schedule(p)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestCascadeStopsAtFirstSuccess: on an instance the head of the order
// closes, nothing behind the head runs.
func TestCascadeStopsAtFirstSuccess(t *testing.T) {
	n := fig2Network(t)
	p := fig6Problem(t, n)
	p.Opts.Backend = BackendCascade
	p.Opts.Obs = obs.NewRegistry()
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	verifyClean(t, n, res)
	if res.BackendUsed != BackendPlacer {
		t.Fatalf("BackendUsed = %v, want placer", res.BackendUsed)
	}
	want := map[string]int64{
		`etsn_backend_cascades_total`:                 1,
		`etsn_backend_solves_total{backend="placer"}`: 1,
		`etsn_backend_wins_total{backend="placer"}`:   1,
	}
	for _, m := range p.Opts.Obs.Gather() {
		if !strings.HasPrefix(m.Name, "etsn_backend_") || m.Kind != obs.KindCounter {
			continue
		}
		if m.Value != want[m.Name] {
			t.Errorf("%s = %d, want %d", m.Name, m.Value, want[m.Name])
		}
		delete(want, m.Name)
	}
	if len(want) != 0 {
		t.Errorf("counters never published: %v", want)
	}
}

// TestScheduleContextCancelled: a cancelled context stops the cancellable
// backends with a budget-flavored error.
func TestScheduleContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range []Backend{BackendGreedy, BackendSMTIncremental, BackendCascade} {
		_, p := randomProblem(t, 3)
		p.Opts.Backend = b
		_, err := ScheduleContext(ctx, p)
		if err == nil {
			// The fast placers may legitimately finish before noticing.
			continue
		}
		if !errors.Is(err, ErrBudget) && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("backend %v: cancelled err = %v, want ErrBudget", b, err)
		}
	}
}

// TestGreedyPlacesLate: the ALAP placer parks an uncontended stream at its
// deadline, not at time zero (the property that distinguishes it from the
// first-fit placer).
func TestGreedyPlacesLate(t *testing.T) {
	n := fig2Network(t)
	p := fig4Problem(t, n)
	p.Opts.Backend = BackendGreedy
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	verifyClean(t, n, res)
	// s1 is placed first, so its first link is uncontended: ALAP must start
	// its first frame strictly after 0 (where the first-fit placer puts it),
	// holding the frame back until its downstream deadline chain requires it.
	first := p.TCT[0].Path[0]
	var s1Off int64 = -1
	for _, sl := range res.Schedule.SlotsOn(first) {
		if sl.Stream == "s1" && sl.Index == 0 {
			s1Off = sl.Offset
		}
	}
	if s1Off <= 0 {
		t.Fatalf("greedy placed s1 frame 0 at offset %d; want a late (ALAP) slot", s1Off)
	}
}

func BenchmarkBackends(b *testing.B) {
	for _, backend := range []Backend{BackendPlacer, BackendGreedy, BackendCascade} {
		b.Run(backend.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, p := randomProblem(b, 5)
				p.Opts.Backend = backend
				if _, err := Schedule(p); err != nil {
					b.Skip(err)
				}
			}
		})
	}
}
