package etsn_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"etsn/internal/core"
	"etsn/internal/experiments"
	"etsn/internal/gcl"
	"etsn/internal/model"
	"etsn/internal/obs"
	"etsn/internal/sched"
	"etsn/internal/sim"
	"etsn/internal/smt"
)

// benchOpts keeps per-iteration simulation time modest; etsn-bench runs the
// full durations.
var benchOpts = experiments.RunOptions{
	Duration: 500 * time.Millisecond,
	Seed:     experiments.DefaultSeed,
}

// BenchmarkHeadline regenerates the paper's headline numbers (Sec. VI-B,
// 75% load: E-TSN vs PERIOD vs AVB on the testbed).
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Headline(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Summaries) != 3 {
			b.Fatal("incomplete headline result")
		}
	}
}

// BenchmarkFig11 regenerates Fig. 11: ECT latency CDFs under three loads.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Cells) == 0 {
			b.Fatal("empty fig11 result")
		}
	}
}

// BenchmarkFig12 regenerates Fig. 12: PERIOD with multiplied slot budgets.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Series) == 0 {
			b.Fatal("empty fig12 result")
		}
	}
}

// BenchmarkFig14 regenerates a representative slice of Fig. 14 (the full
// 45-run grid is run by etsn-bench): both load extremes at 1 and 5 MTU.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14Custom([]float64{0.25, 0.75}, []int{1, 5}, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Cells) == 0 {
			b.Fatal("empty fig14 result")
		}
	}
}

// BenchmarkFig15 regenerates Fig. 15: the impact of ECT on TCT streams.
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if !r.DeadlinesHeld() {
			b.Fatal("TCT deadline violated")
		}
	}
}

// BenchmarkFig16 regenerates Fig. 16: four concurrent ECT streams.
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig16(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Streams) != 4 {
			b.Fatal("incomplete fig16 result")
		}
	}
}

// BenchmarkAblationNProb sweeps the possibilities-per-ECT knob.
func BenchmarkAblationNProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationNProb(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPrudent contrasts prudent reservation on/off.
func BenchmarkAblationPrudent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPrudent(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBackend compares placer vs SMT vs incremental SMT.
func BenchmarkAblationBackend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBackend(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScale plans and simulates the 24-device tree (the scalability
// extension).
func BenchmarkScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Scale(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if r.TCTDeadlineMisses != 0 {
			b.Fatal("deadline misses at scale")
		}
	}
}

// BenchmarkSync runs the 802.1AS residual-error sweep.
func BenchmarkSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Sync(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerPlacer measures pure scheduling throughput on the
// testbed scenario at 75% load (the hardest planning instance of Sec. VI-B).
func BenchmarkSchedulerPlacer(b *testing.B) {
	scen, err := experiments.NewTestbedScenario(0.75, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := scen.Problem().Core()
		p.Opts.Backend = core.BackendPlacer
		if _, err := core.Schedule(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerSMTIncremental measures exact solving on a small
// instance.
func BenchmarkSchedulerSMTIncremental(b *testing.B) {
	scen, err := experiments.NewTestbedScenario(0.25, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	scen.NProb = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := scen.Problem().Core()
		p.Opts.Backend = core.BackendSMTIncremental
		if _, err := core.Schedule(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures event-processing throughput: one second of
// the 12-device simulation topology at 75% load under E-TSN.
func BenchmarkSimulator(b *testing.B) {
	scen, err := experiments.NewSimulationScenario(0.75, 1, 1, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sched.Build(sched.MethodETSN, scen.Problem(), 1)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	defer simEventMetrics(b, reg)()
	for i := 0; i < b.N; i++ {
		if _, err := plan.SimulateOpts(scen.Network, sched.SimOptions{ECT: scen.ECT, BE: scen.BE,
			Duration: time.Second, Seed: int64(i) + 1, Obs: reg}); err != nil {
			b.Fatal(err)
		}
	}
}

// simEventMetrics resets the timer and returns a function that, called after
// the loop, reports events/op and allocs/event from the registry the
// simulations published into — the two numbers the event loop is budgeted
// on, printed by check.sh's -benchtime=1x smoke.
func simEventMetrics(b *testing.B, reg *obs.Registry) func() {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	return func() {
		b.StopTimer()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		events := float64(reg.CounterValue("etsn_sim_events_total"))
		b.ReportMetric(events/float64(b.N), "events/op")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "allocs/event")
	}
}

// benchSimulatorAttrib runs the BenchmarkSimulator workload with the
// attribution and registry knobs set, so the three variants below isolate
// the cost of per-frame causal attribution on the event loop.
func benchSimulatorAttrib(b *testing.B, attrib, withReg bool) {
	b.Helper()
	scen, err := experiments.NewSimulationScenario(0.75, 1, 1, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sched.Build(sched.MethodETSN, scen.Problem(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := sched.SimOptions{ECT: scen.ECT, BE: scen.BE,
			Duration: time.Second, Seed: int64(i) + 1, Attribution: attrib}
		if withReg {
			opts.Obs = obs.NewRegistry()
		}
		if _, err := plan.SimulateOpts(scen.Network, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorAttribOff is the baseline: attribution disabled, nil
// registry. The disabled path must cost nothing on the event loop
// (sim.TestAttributionDisabledNoAllocs pins the zero-allocation claim).
func BenchmarkSimulatorAttribOff(b *testing.B) { benchSimulatorAttrib(b, false, false) }

// BenchmarkSimulatorAttribOn measures the full causal decomposition:
// per-frame hop records, exact wait charging, and conformance scoring.
func BenchmarkSimulatorAttribOn(b *testing.B) { benchSimulatorAttrib(b, true, false) }

// BenchmarkSimulatorAttribOnObs adds the metrics registry, the
// configuration etsn-bench -attrib runs (slack histograms included).
func BenchmarkSimulatorAttribOnObs(b *testing.B) { benchSimulatorAttrib(b, true, true) }

// BenchmarkAttribExperiment regenerates the attribution experiment table.
func BenchmarkAttribExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Attrib(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if r.Frames == 0 {
			b.Fatal("no frames attributed")
		}
	}
}

// BenchmarkGCLSynthesis measures Gate Control List compilation.
func BenchmarkGCLSynthesis(b *testing.B) {
	scen, err := experiments.NewTestbedScenario(0.75, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	p := scen.Problem().Core()
	res, err := core.Schedule(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gcl.Synthesize(res.Schedule, gcl.Config{OpenECTOnShared: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify measures the independent schedule checker.
func BenchmarkVerify(b *testing.B) {
	scen, err := experiments.NewTestbedScenario(0.75, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	p := scen.Problem().Core()
	res, err := core.Schedule(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := core.Verify(scen.Network, res); len(vs) != 0 {
			b.Fatalf("violations: %v", vs)
		}
	}
}

// BenchmarkExpandECT measures probabilistic-stream expansion.
func BenchmarkExpandECT(b *testing.B) {
	scen, err := experiments.NewTestbedScenario(0.25, experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	ect := scen.ECT[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps, err := core.ExpandECT(ect, 128)
		if err != nil || len(ps) != 128 {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadlineParallel measures the experiment fan-out: the headline's
// three method cells through a 4-worker pool. Compare against
// BenchmarkHeadline for the wall-time reduction on multi-core machines.
func BenchmarkHeadlineParallel(b *testing.B) {
	opts := benchOpts
	opts.Parallel = 4
	for i := 0; i < b.N; i++ {
		r, err := experiments.Headline(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Summaries) != 3 {
			b.Fatal("incomplete headline result")
		}
	}
}

// jobShopSolver builds a disjunctive one-resource scheduling instance: n
// tasks of the given length, each within [0, horizon]. SAT iff the tasks
// fit end to end.
func jobShopSolver(n int, length, horizon int64) *smt.Solver {
	s := smt.NewSolver()
	vars := make([]smt.Var, n)
	for i := range vars {
		vars[i] = s.NewVar("t")
		s.AssertRange(vars[i], 0, horizon)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.AddClause(smt.LE(vars[i], vars[j], -length), smt.LE(vars[j], vars[i], -length))
		}
	}
	return s
}

// BenchmarkCDCLvsReference compares the CDCL(T) core against the
// chronological Reference oracle on the bench/BENCH_smt.json instance
// classes: an UNSAT core and a forced Minimize objective, each buried
// behind k independent disjunctive distractor pairs. The reference solver
// re-refutes the core once per distractor assignment (2^k times); CDCL
// learns it once and backjumps past the distractors.
func BenchmarkCDCLvsReference(b *testing.B) {
	for _, mode := range []smt.Mode{smt.ModeCDCL, smt.ModeReference} {
		b.Run("buried-conflict-14/"+mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := experiments.BuriedConflict(14)
				s.Mode = mode
				b.StartTimer()
				if _, err := s.Solve(); !errors.Is(err, smt.ErrUnsat) {
					b.Fatal(err)
				}
			}
		})
		b.Run("buried-minimize-12/"+mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, v := experiments.BuriedMinimize(12)
				s.Mode = mode
				b.StartTimer()
				m, err := s.Minimize(v, 0, 50)
				if err != nil {
					b.Fatal(err)
				}
				if m.Value(v) != 15 {
					b.Fatalf("optimum %d, want 15", m.Value(v))
				}
			}
		})
	}
}

// BenchmarkSMTSolve measures the single deterministic search on a job-shop
// instance.
func BenchmarkSMTSolve(b *testing.B) {
	const n, length = 10, 10
	horizon := int64((n - 1) * length)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := jobShopSolver(n, length, horizon)
		b.StartTimer()
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEventRate reports the simulator's raw event throughput on a
// tiny network, in processed messages per op.
func BenchmarkSimEventRate(b *testing.B) {
	n := model.NewNetwork()
	if err := n.AddDevice("a"); err != nil {
		b.Fatal(err)
	}
	if err := n.AddDevice("c"); err != nil {
		b.Fatal(err)
	}
	if err := n.AddSwitch("sw"); err != nil {
		b.Fatal(err)
	}
	if err := n.AddLink("a", "sw", model.LinkConfig{Bandwidth: 100_000_000}); err != nil {
		b.Fatal(err)
	}
	if err := n.AddLink("sw", "c", model.LinkConfig{Bandwidth: 100_000_000}); err != nil {
		b.Fatal(err)
	}
	path, err := n.ShortestPath("a", "c")
	if err != nil {
		b.Fatal(err)
	}
	st := &model.Stream{ID: "s", Path: path, E2E: time.Millisecond,
		LengthBytes: model.MTUBytes, Period: time.Millisecond, Type: model.StreamDet}
	res, err := core.Schedule(&core.Problem{Network: n, TCT: []*model.Stream{st}})
	if err != nil {
		b.Fatal(err)
	}
	gcls, err := gcl.Synthesize(res.Schedule, gcl.Config{})
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	defer simEventMetrics(b, reg)()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(sim.Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
			Duration: time.Second, Seed: 1, Obs: reg})
		if err != nil {
			b.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if r.Delivered("s") == 0 {
			b.Fatal("no deliveries")
		}
	}
}
