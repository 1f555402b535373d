package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"etsn/internal/model"
	"etsn/internal/obs"
)

// mtuTx is the transmission time of one MTU frame on a 100 Mb/s link,
// rounded up to the 1us scheduling unit (1542 wire bytes = 123.36us).
const mtuTx = 124 * time.Microsecond

// fig2Network builds the paper's Fig. 2 network: D1, D2, D3 around SW1,
// 100 Mb/s links, zero propagation delay.
func fig2Network(t *testing.T) *model.Network {
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

func mustPath(t *testing.T, n *model.Network, src, dst model.NodeID) []model.LinkID {
	t.Helper()
	p, err := n.ShortestPath(src, dst)
	if err != nil {
		t.Fatalf("ShortestPath(%s,%s): %v", src, dst, err)
	}
	return p
}

// fig4Problem is the paper's Sec. II example: TCT s1 (three frames) and TCT
// s2 (one frame), cycle 5T with T = one MTU transmission.
func fig4Problem(t *testing.T, n *model.Network) *Problem {
	t.Helper()
	cycle := 5 * mtuTx
	return &Problem{
		Network: n,
		TCT: []*model.Stream{
			{ID: "s1", Path: mustPath(t, n, "D1", "D3"), E2E: cycle,
				LengthBytes: 3 * model.MTUBytes, Period: cycle, Type: model.StreamDet},
			{ID: "s2", Path: mustPath(t, n, "D2", "D3"), E2E: cycle,
				LengthBytes: model.MTUBytes, Period: cycle, Type: model.StreamDet},
		},
	}
}

// fig6Problem is the paper's Sec. III-B example: s1 becomes a sharing TCT
// stream and s2 becomes an ECT stream expanded into five possibilities.
func fig6Problem(t *testing.T, n *model.Network) *Problem {
	t.Helper()
	cycle := 5 * mtuTx
	return &Problem{
		Network: n,
		TCT: []*model.Stream{
			{ID: "s1", Path: mustPath(t, n, "D1", "D3"), E2E: 6 * mtuTx,
				LengthBytes: 3 * model.MTUBytes, Period: cycle, Type: model.StreamDet, Share: true},
		},
		ECT: []*model.ECT{
			{ID: "s2", Path: mustPath(t, n, "D2", "D3"), E2E: cycle,
				LengthBytes: model.MTUBytes, MinInterevent: cycle},
		},
		Opts: Options{NProb: 5, Backend: BackendPlacer},
	}
}

func verifyClean(t *testing.T, n *model.Network, res *Result) {
	t.Helper()
	if vs := Verify(n, res); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("%d violations", len(vs))
	}
}

func TestScheduleFig4Placer(t *testing.T) {
	n := fig2Network(t)
	p := fig4Problem(t, n)
	p.Opts.Backend = BackendPlacer
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	verifyClean(t, n, res)
	if res.BackendUsed != BackendPlacer {
		t.Fatalf("BackendUsed = %v", res.BackendUsed)
	}
	// s1 occupies three slots per link, s2 one.
	if got := res.FrameCountOn("s1", p.TCT[0].Path[0]); got != 3 {
		t.Fatalf("s1 frames on first link = %d, want 3", got)
	}
	if got := res.FrameCountOn("s2", p.TCT[1].Path[0]); got != 1 {
		t.Fatalf("s2 frames = %d, want 1", got)
	}
	for _, id := range []model.StreamID{"s1", "s2"} {
		wc, err := TCTWorstCase(n, res, id)
		if err != nil {
			t.Fatalf("TCTWorstCase(%s): %v", id, err)
		}
		if wc > res.Schedule.Streams[id].E2E {
			t.Fatalf("stream %s worst case %v exceeds e2e %v", id, wc, res.Schedule.Streams[id].E2E)
		}
	}
}

func TestScheduleFig4SMT(t *testing.T) {
	n := fig2Network(t)
	p := fig4Problem(t, n)
	p.Opts.Backend = BackendSMT
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	verifyClean(t, n, res)
	if res.BackendUsed != BackendSMT {
		t.Fatalf("BackendUsed = %v", res.BackendUsed)
	}
	if res.SolverStats.Clauses == 0 || res.SolverStats.Vars == 0 {
		t.Fatalf("missing solver stats: %+v", res.SolverStats)
	}
}

// TestScheduleSMTStatsSurfaced runs a real schedule through the SMT
// backend and checks the CDCL stats land in both Result.SolverStats and
// the obs registry's etsn_smt_* family. A feasible scheduling run is
// typically conflict-free, so the conflict-derived counters (Learned,
// Restarts) are only asserted non-negative; the search-shape counters
// must be live.
func TestScheduleSMTStatsSurfaced(t *testing.T) {
	n := fig2Network(t)
	p := fig4Problem(t, n)
	p.Opts.Backend = BackendSMT
	reg := obs.NewRegistry()
	p.Opts.Obs = reg
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	st := res.SolverStats
	if st.Decisions == 0 || st.Propagations == 0 || st.MaxDecisionLevel == 0 {
		t.Fatalf("search-shape stats not populated: %+v", st)
	}
	if st.Learned < 0 || st.Restarts < 0 || st.TheoryProps < 0 {
		t.Fatalf("negative stats: %+v", st)
	}
	// The new counters must be registered (published, possibly at zero)
	// alongside the established effort family.
	want := map[string]bool{
		"etsn_smt_restarts_total":     false,
		"etsn_smt_learned_clauses":    false,
		"etsn_smt_theory_props_total": false,
		"etsn_smt_decisions_total":    false,
	}
	for _, m := range reg.Gather() {
		if _, ok := want[m.Name]; ok {
			want[m.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("metric %s not published", name)
		}
	}
	if got := reg.CounterValue("etsn_smt_decisions_total"); got != st.Decisions {
		t.Errorf("etsn_smt_decisions_total = %d, want %d", got, st.Decisions)
	}
}

func TestScheduleFig4SMTIncremental(t *testing.T) {
	n := fig2Network(t)
	p := fig4Problem(t, n)
	p.Opts.Backend = BackendSMTIncremental
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	verifyClean(t, n, res)
}

func TestScheduleFig6ECT(t *testing.T) {
	n := fig2Network(t)
	p := fig6Problem(t, n)
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	verifyClean(t, n, res)

	// Five possibilities plus one TCT stream.
	if len(res.Expanded) != 6 {
		t.Fatalf("expanded streams = %d, want 6", len(res.Expanded))
	}
	// Prudent reservation adds one extra s1 slot on the shared link
	// SW1->D3 (ECT and s1 overlap only there).
	shared := model.LinkID{From: "SW1", To: "D3"}
	first := model.LinkID{From: "D1", To: "SW1"}
	if got := res.FrameCountOn("s1", shared); got != 4 {
		t.Fatalf("s1 frames on shared link = %d, want 4", got)
	}
	if got := res.FrameCountOn("s1", first); got != 3 {
		t.Fatalf("s1 frames on first link = %d, want 3", got)
	}

	// The ECT worst-case bound must stay within the ECT deadline.
	bound, err := ECTWorstCaseBound(n, res, "s2")
	if err != nil {
		t.Fatalf("ECTWorstCaseBound: %v", err)
	}
	if bound > 5*mtuTx {
		t.Fatalf("ECT worst-case bound %v exceeds deadline %v", bound, 5*mtuTx)
	}
	// With immediate slot sharing the bound is pick-up spacing + the
	// two-hop chain + one non-preemptive blocking frame per hop.
	if want := mtuTx + 2*mtuTx + 2*mtuTx; bound > want {
		t.Fatalf("ECT worst-case bound %v, want <= %v (spacing + chain + blocking)", bound, want)
	}
}

func TestScheduleECTSMTStrict(t *testing.T) {
	// The strict SMT formulation (no period wrap) needs possibilities that
	// complete within the interevent period; use a long period so even the
	// last possibility fits.
	n := fig2Network(t)
	p := &Problem{
		Network: n,
		TCT: []*model.Stream{
			{ID: "s1", Path: mustPath(t, n, "D1", "D3"), E2E: 2 * time.Millisecond,
				LengthBytes: 3 * model.MTUBytes, Period: 2 * time.Millisecond,
				Type: model.StreamDet, Share: true},
		},
		ECT: []*model.ECT{
			{ID: "e1", Path: mustPath(t, n, "D2", "D3"), E2E: 2 * time.Millisecond,
				LengthBytes: model.MTUBytes, MinInterevent: 2 * time.Millisecond},
		},
		Opts: Options{NProb: 4, Backend: BackendSMTIncremental},
	}
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	verifyClean(t, n, res)
	// All slots of the strict formulation stay in epoch 0.
	for _, lid := range res.Schedule.Links() {
		for _, fs := range res.Schedule.SlotsOn(lid) {
			if fs.Epoch != 0 {
				t.Fatalf("SMT slot with epoch %d: %+v", fs.Epoch, fs)
			}
		}
	}
}

func TestScheduleWrapUsesEpoch(t *testing.T) {
	// In the Fig. 6 problem the last possibility (ot = 4T) cannot deliver
	// its second hop within the period; the placer must wrap it.
	n := fig2Network(t)
	res, err := Schedule(fig6Problem(t, n))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	shared := model.LinkID{From: "SW1", To: "D3"}
	ps5 := ProbStreamID("s2", 5)
	slots := res.Schedule.StreamSlots(ps5, shared)
	if len(slots) != 1 {
		t.Fatalf("ps5 slots = %d, want 1", len(slots))
	}
	if slots[0].Epoch != 1 {
		t.Fatalf("ps5 downstream epoch = %d, want 1 (wrap)", slots[0].Epoch)
	}
}

func TestScheduleAutoFallsBackToSMT(t *testing.T) {
	n := fig2Network(t)
	p := fig4Problem(t, n)
	p.Opts.Backend = BackendAuto
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	// The placer should succeed here, so auto uses it.
	if res.BackendUsed != BackendPlacer {
		t.Fatalf("BackendUsed = %v, want placer", res.BackendUsed)
	}
}

func TestScheduleInfeasibleOverload(t *testing.T) {
	// Two 2-frame streams from D1 with period 2T cannot fit 4 frames on
	// the D1->SW1 link.
	n := fig2Network(t)
	cycle := 2 * mtuTx
	p := &Problem{
		Network: n,
		TCT: []*model.Stream{
			{ID: "a", Path: mustPath(t, n, "D1", "D3"), E2E: cycle,
				LengthBytes: 2 * model.MTUBytes, Period: cycle, Type: model.StreamDet},
			{ID: "b", Path: mustPath(t, n, "D1", "D2"), E2E: cycle,
				LengthBytes: 2 * model.MTUBytes, Period: cycle, Type: model.StreamDet},
		},
	}
	for _, backend := range []Backend{BackendPlacer, BackendSMT, BackendSMTIncremental} {
		p.Opts.Backend = backend
		if _, err := Schedule(p); !errors.Is(err, ErrInfeasible) {
			t.Errorf("backend %v: err = %v, want ErrInfeasible", backend, err)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	n := fig2Network(t)
	run := func() *Result {
		res, err := Schedule(fig6Problem(t, n))
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		return res
	}
	a, b := run(), run()
	for _, lid := range a.Schedule.Links() {
		as, bs := a.Schedule.SlotsOn(lid), b.Schedule.SlotsOn(lid)
		if len(as) != len(bs) {
			t.Fatalf("slot count differs on %s", lid)
		}
		for i := range as {
			if as[i] != bs[i] {
				t.Fatalf("slot %d on %s differs: %+v vs %+v", i, lid, as[i], bs[i])
			}
		}
	}
}

func TestScheduleInvalidProblems(t *testing.T) {
	n := fig2Network(t)
	valid := fig4Problem(t, n)
	cases := []struct {
		name   string
		mutate func(*Problem)
	}{
		{"nil network", func(p *Problem) { p.Network = nil }},
		{"duplicate tct id", func(p *Problem) { p.TCT = append(p.TCT, p.TCT[0]) }},
		{"duplicate ect id", func(p *Problem) {
			p.ECT = []*model.ECT{{ID: "s1", Path: p.TCT[0].Path, E2E: time.Millisecond,
				LengthBytes: 100, MinInterevent: time.Millisecond}}
		}},
		{"prob typed tct", func(p *Problem) {
			s := *p.TCT[0]
			s.ID = "x"
			s.Type = model.StreamProb
			s.Parent = "y"
			p.TCT = append(p.TCT, &s)
		}},
		{"period not multiple of unit", func(p *Problem) {
			s := *p.TCT[0]
			s.ID = "x"
			s.Period = 620*time.Microsecond + time.Nanosecond
			p.TCT = append(p.TCT, &s)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &Problem{Network: valid.Network}
			p.TCT = append([]*model.Stream(nil), valid.TCT...)
			c.mutate(p)
			if _, err := Schedule(p); !errors.Is(err, ErrInvalidProblem) {
				t.Fatalf("err = %v, want ErrInvalidProblem", err)
			}
		})
	}
}

func TestScheduleMixedTimeUnitsRejected(t *testing.T) {
	n := model.NewNetwork()
	if err := n.AddDevice("D1"); err != nil {
		t.Fatal(err)
	}
	if err := n.AddDevice("D2"); err != nil {
		t.Fatal(err)
	}
	if err := n.AddSwitch("SW1"); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("D1", "SW1", model.LinkConfig{Bandwidth: 100_000_000, TimeUnit: time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("D2", "SW1", model.LinkConfig{Bandwidth: 100_000_000, TimeUnit: 2 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	p := &Problem{Network: n, TCT: []*model.Stream{
		{ID: "s1", Path: mustPath(t, n, "D1", "D2"), E2E: time.Millisecond,
			LengthBytes: 100, Period: time.Millisecond, Type: model.StreamDet},
	}}
	if _, err := Schedule(p); !errors.Is(err, ErrInvalidProblem) {
		t.Fatalf("err = %v, want ErrInvalidProblem", err)
	}
}

func TestSchedulePriorityAssignment(t *testing.T) {
	n := fig2Network(t)
	p := fig6Problem(t, n)
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for _, s := range res.Expanded {
		switch {
		case s.Type == model.StreamProb:
			if s.Priority != model.PriorityECT {
				t.Errorf("prob stream %s priority %d, want %d", s.ID, s.Priority, model.PriorityECT)
			}
		case s.Share:
			if s.Priority < model.PrioritySharedLow || s.Priority > model.PrioritySharedHigh {
				t.Errorf("shared stream %s priority %d outside band", s.ID, s.Priority)
			}
		default:
			if s.Priority < model.PriorityNonSharedLow || s.Priority > model.PriorityNonSharedHigh {
				t.Errorf("non-shared stream %s priority %d outside band", s.ID, s.Priority)
			}
		}
	}
}

func TestBackendString(t *testing.T) {
	for b, want := range map[Backend]string{
		BackendAuto:           "auto",
		BackendPlacer:         "placer",
		BackendSMT:            "smt",
		BackendSMTIncremental: "smt-incremental",
		Backend(42):           "Backend(42)",
	} {
		if got := b.String(); got != want {
			t.Errorf("Backend(%d).String() = %q, want %q", int(b), got, want)
		}
	}
}

// TestOptionsFieldBudget pins the number of scheduler knobs: every field
// multiplies the configurations tests and benchmarks have to cover, so one
// added here has to take another's place.
func TestOptionsFieldBudget(t *testing.T) {
	n := reflect.TypeOf(Options{}).NumField()
	t.Logf("core.Options fields: %d", n) // scripts/check.sh prints this line
	if n > 11 {
		t.Errorf("core.Options has %d fields, budget 11", n)
	}
}

func TestScheduleMinimizeECT(t *testing.T) {
	// The strict SMT formulation with a long interevent: the default SAT
	// answer is feasible but not optimal; optimization tightens the worst
	// per-possibility latency.
	n := fig2Network(t)
	mk := func(minimize bool) *Result {
		p := &Problem{
			Network: n,
			TCT: []*model.Stream{
				{ID: "s1", Path: mustPath(t, n, "D1", "D3"), E2E: 2 * time.Millisecond,
					LengthBytes: 3 * model.MTUBytes, Period: 2 * time.Millisecond,
					Type: model.StreamDet, Share: true},
			},
			ECT: []*model.ECT{
				{ID: "e1", Path: mustPath(t, n, "D2", "D3"), E2E: 2 * time.Millisecond,
					LengthBytes: model.MTUBytes, MinInterevent: 2 * time.Millisecond},
			},
			Opts: Options{NProb: 4, Backend: BackendSMT, MinimizeECT: minimize,
				MaxDecisions: 2_000_000},
		}
		res, err := Schedule(p)
		if err != nil {
			t.Fatalf("Schedule(minimize=%v): %v", minimize, err)
		}
		verifyClean(t, n, res)
		return res
	}
	plain := mk(false)
	opt := mk(true)
	wcPlain, err := ECTScheduleWorstCase(n, plain, "e1")
	if err != nil {
		t.Fatal(err)
	}
	wcOpt, err := ECTScheduleWorstCase(n, opt, "e1")
	if err != nil {
		t.Fatal(err)
	}
	if wcOpt > wcPlain {
		t.Fatalf("optimized worst case %v above plain %v", wcOpt, wcPlain)
	}
	// The optimum is the pick-up spacing plus the two-hop chain: each
	// possibility delivered as soon as physically possible.
	spacing := 500 * time.Microsecond
	chain := 2 * mtuTx
	if wcOpt > spacing+chain {
		t.Fatalf("optimized worst case %v above spacing+chain %v", wcOpt, spacing+chain)
	}
}

func TestScheduleMinimizeECTNoECT(t *testing.T) {
	// Minimization with no ECT streams degrades to plain solving.
	n := fig2Network(t)
	p := fig4Problem(t, n)
	p.Opts.Backend = BackendSMT
	p.Opts.MinimizeECT = true
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	verifyClean(t, n, res)
}
