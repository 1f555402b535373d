// etsn-bench regenerates every table and figure of the paper's evaluation
// (Sec. VI): Fig. 11 (ECT latency CDFs by method and load), Fig. 12 (PERIOD
// with multiplied slot budgets), Fig. 14 (latency/jitter vs load and
// message length on the simulation topology), Fig. 15 (impact of ECT on TCT
// streams), Fig. 16 (four concurrent ECT streams), and the headline numbers
// at 75% load.
//
// Every experiment additionally writes a machine-readable benchmark record
// (BENCH_<experiment>.json) with solver-effort and simulator-throughput
// counters, harvested from the run's metrics registry.
//
// Usage:
//
//	etsn-bench [-experiment all|headline|fig11|fig12|fig14|fig15|fig16]
//	           [-duration 4s] [-seed 60802] [-parallel N]
//	           [-backend auto|placer|greedy|smt|smt-incremental|cascade]
//	           [-compare-sequential] [-attrib]
//	           [-metrics out.prom] [-trace-phases out.trace.json]
//	           [-pprof cpu=FILE|mem=FILE|HOST:PORT]
//	           [-bench-dir DIR] [-bench-name NAME]
//	           [-check-bench FILE] [-history FILE]
//	           [-trend FILE] [-trend-threshold 0.10] [-trend-strict]
//
// -parallel N fans independent experiment cells (load x method grid points)
// out over N workers; the tables printed are byte-identical to a sequential
// run. -compare-sequential additionally reruns each experiment with
// -parallel 1 (output discarded) and records both wall times in the bench
// artifact.
//
// -attrib enables the per-frame latency attribution in every simulation
// (the "attrib" experiment forces it regardless); the bench artifact then
// carries an attrib section with frame and bound-conformance counters.
// -history FILE appends one JSON line per completed experiment
// ({"experiment","wall_ms","parallel","seed"}) so wall-time trends
// accumulate across runs (see bench/history.jsonl).
//
// -trend FILE analyzes an accumulated history file: each experiment's
// newest wall time is compared against the median of its previous (up to
// five) runs, and runs more than -trend-threshold over that baseline are
// flagged. -trend -json emits the machine-readable trend document
// ({name, n, median_ms, last_ms, delta_pct, flagged} per experiment,
// byte-identical to the dashboard's /api/trend endpoint) instead of the
// human table. Under -trend-strict a flagged regression exits with code
// 2 (any other failure exits 1), so CI can gate on regressions without
// parsing text.
//
// -dash ADDR serves the live observability dashboard (internal/dash) on
// ADDR while experiments run: the current experiment's registry and
// phase tracer are published as JSON snapshots and an SSE stream, with
// the wall-time history chart backed by -history (default
// bench/history.jsonl). After the last experiment the process keeps
// serving until SIGINT/SIGTERM, then drains gracefully.
//
// -backend NAME plans every simulation with that scheduling backend
// (default auto: placer with exact-SMT fallback; "cascade" runs the
// backends one at a time in priority order and stops at the first verified
// plan).
// The "backends" experiment benchmarks every backend standalone plus the
// cascade over the fig11 load grid and emits BENCH_backends.json, gated by
// -check-bench (see bench/BENCH_backends.json).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"etsn/internal/core"
	"etsn/internal/dash"
	"etsn/internal/experiments"
	"etsn/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "etsn-bench:", err)
		// Exit 2 is the documented -trend-strict regression verdict;
		// everything else is 1.
		if errors.Is(err, errTrendRegressed) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("etsn-bench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "experiment to run: all, headline, fig11, fig12, fig14, fig15, fig16, fourway, frer, scale, sync, ablation, faults, attrib, smt, backends")
	duration := fs.Duration("duration", experiments.DefaultDuration, "simulated time per run")
	seed := fs.Int64("seed", experiments.DefaultSeed, "random seed for event arrivals")
	benchDir := fs.String("bench-dir", ".", "directory for BENCH_<experiment>.json artifacts")
	benchName := fs.String("bench-name", "", "override the artifact name (BENCH_<name>.json)")
	checkBench := fs.String("check-bench", "", "validate an existing bench artifact and exit")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool width for independent experiment cells (1 = sequential)")
	compareSeq := fs.Bool("compare-sequential", false, "rerun each experiment with -parallel 1 and record both wall times in the bench artifact")
	attribOn := fs.Bool("attrib", false, "enable per-frame latency attribution in every simulation")
	history := fs.String("history", "", "append one {experiment, wall_ms, parallel, seed} JSON line per run to this file")
	backendName := fs.String("backend", "", "scheduling backend for every plan: auto (default), placer, greedy, smt, smt-incremental, or cascade")
	trend := fs.String("trend", "", "analyze a wall-time history file (bench/history.jsonl) for regressions and exit")
	trendThreshold := fs.Float64("trend-threshold", 0.10, "flag a run whose wall time exceeds its rolling baseline by more than this fraction")
	trendStrict := fs.Bool("trend-strict", false, "exit with code 2 when -trend flags a regression")
	trendJSON := fs.Bool("json", false, "with -trend: emit the machine-readable trend document instead of the human table")
	cli := dash.NewCLI("etsn-bench", fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trend != "" {
		return runTrend(w, *trend, *trendThreshold, *trendStrict, *trendJSON)
	}
	if *checkBench != "" {
		a, err := experiments.LoadBenchArtifact(*checkBench)
		if err != nil {
			return err
		}
		if err := a.Validate(); err != nil {
			return err
		}
		if len(a.SMT) > 0 {
			fmt.Fprintf(w, "%s: valid bench artifact (%s, wall %dms, %d smt classes)\n",
				*checkBench, a.Experiment, a.WallMs, len(a.SMT))
		} else if a.Backends != nil {
			fmt.Fprintf(w, "%s: valid bench artifact (%s, wall %dms, %d backend points, %d cascades)\n",
				*checkBench, a.Experiment, a.WallMs, len(a.Backends.Points), len(a.Backends.Cascades))
		} else {
			fmt.Fprintf(w, "%s: valid bench artifact (%s, wall %dms, %d events)\n",
				*checkBench, a.Experiment, a.WallMs, a.Sim.Events)
		}
		return nil
	}
	backend, err := core.ParseBackend(*backendName)
	if err != nil {
		return err
	}
	opts := experiments.RunOptions{Duration: *duration, Seed: *seed, Parallel: *parallel,
		Attribution: *attribOn, Backend: backend}

	// -dash serves the live dashboard for the whole run. Each experiment
	// publishes its fresh registry/tracer as it starts (runOne), so SSE
	// clients watch the current experiment; the trend chart reads the
	// same history file -history appends to.
	histPath := *history
	if histPath == "" {
		histPath = "bench/history.jsonl"
	}
	defer cli.End()
	if err := cli.Begin(dash.Options{HistoryPath: histPath, TrendThreshold: *trendThreshold}); err != nil {
		return err
	}

	type runner struct {
		name string
		fn   func(experiments.RunOptions, io.Writer) error
	}
	// The smt and backends runners stash their sections here; runOne
	// attaches them to that run's artifact (the registry harvest carries
	// only the aggregate counters, not the per-class/per-point split).
	var smtClasses []experiments.BenchSMTClass
	var backendBench *experiments.BenchBackends
	var scaleBench *experiments.BenchScale
	all := []runner{
		{"headline", func(o experiments.RunOptions, w io.Writer) error {
			r, err := experiments.Headline(o)
			if err != nil {
				return err
			}
			r.WriteTable(w)
			return nil
		}},
		{"fig11", func(o experiments.RunOptions, w io.Writer) error {
			r, err := experiments.Fig11(o)
			if err != nil {
				return err
			}
			r.WriteTable(w)
			return nil
		}},
		{"fig12", func(o experiments.RunOptions, w io.Writer) error {
			r, err := experiments.Fig12(o)
			if err != nil {
				return err
			}
			r.WriteTable(w)
			return nil
		}},
		{"fig14", func(o experiments.RunOptions, w io.Writer) error {
			r, err := experiments.Fig14(o)
			if err != nil {
				return err
			}
			r.WriteTable(w)
			return nil
		}},
		{"fig15", func(o experiments.RunOptions, w io.Writer) error {
			r, err := experiments.Fig15(o)
			if err != nil {
				return err
			}
			r.WriteTable(w)
			if !r.DeadlinesHeld() {
				return fmt.Errorf("fig15: a TCT deadline was violated")
			}
			return nil
		}},
		{"fig16", func(o experiments.RunOptions, w io.Writer) error {
			r, err := experiments.Fig16(o)
			if err != nil {
				return err
			}
			r.WriteTable(w)
			return nil
		}},
		{"fourway", func(o experiments.RunOptions, w io.Writer) error {
			r, err := experiments.FourWay(o)
			if err != nil {
				return err
			}
			r.WriteTable(w)
			return nil
		}},
		{"frer", func(o experiments.RunOptions, w io.Writer) error {
			r, err := experiments.FRER(o)
			if err != nil {
				return err
			}
			r.WriteTable(w)
			return nil
		}},
		{"scale", func(o experiments.RunOptions, w io.Writer) error {
			r, err := experiments.Scale(o)
			if err != nil {
				return err
			}
			r.WriteTable(w)
			// The scaling corpus sweep: solver walls over the tree/mesh
			// cell grid, attached to this run's artifact (BENCH_scale.json)
			// and gated by -check-bench.
			ss, err := experiments.ScaleSweep(o)
			if err != nil {
				return err
			}
			fmt.Fprintln(w)
			ss.WriteTable(w)
			scaleBench = ss
			return nil
		}},
		{"sync", func(o experiments.RunOptions, w io.Writer) error {
			r, err := experiments.Sync(o)
			if err != nil {
				return err
			}
			r.WriteTable(w)
			return nil
		}},
		{"ablation", func(o experiments.RunOptions, w io.Writer) error {
			n, err := experiments.AblationNProb(o)
			if err != nil {
				return err
			}
			n.WriteTable(w)
			fmt.Fprintln(w)
			p, err := experiments.AblationPrudent(o)
			if err != nil {
				return err
			}
			p.WriteTable(w)
			fmt.Fprintln(w)
			b, err := experiments.AblationBackend(o)
			if err != nil {
				return err
			}
			b.WriteTable(w)
			return nil
		}},
		{"faults", func(o experiments.RunOptions, w io.Writer) error {
			r, err := experiments.Faults(o)
			if err != nil {
				return err
			}
			r.WriteTable(w)
			if !r.Recovered() {
				return fmt.Errorf("faults: network did not self-heal (last miss %v, ECT worst %v vs bound %v)",
					r.LastMiss, r.ECTWorstPost, r.ECTBound)
			}
			return nil
		}},
		{"attrib", func(o experiments.RunOptions, w io.Writer) error {
			r, err := experiments.Attrib(o)
			if err != nil {
				return err
			}
			r.WriteTable(w)
			return nil
		}},
		{"smt", func(o experiments.RunOptions, w io.Writer) error {
			classes, err := experiments.SMTBench(o)
			if err != nil {
				return err
			}
			experiments.WriteSMTBenchTable(w, classes)
			smtClasses = classes
			return nil
		}},
		{"backends", func(o experiments.RunOptions, w io.Writer) error {
			r, err := experiments.Backends(o)
			if err != nil {
				return err
			}
			r.WriteTable(w)
			backendBench = r.Bench()
			return nil
		}},
	}

	// Each experiment runs with a fresh registry and tracer so its bench
	// artifact reflects that run alone. The -metrics and -trace-phases
	// files carry the last experiment executed (the only one unless
	// -experiment all).
	runOne := func(r runner) error {
		o := opts
		o.Obs = obs.NewRegistry()
		o.Phases = obs.NewTracer()
		if cli.Runner != nil {
			cli.Runner.Server.Publish(o.Obs, o.Phases)
		}
		smtClasses = nil
		backendBench = nil
		scaleBench = nil
		start := time.Now()
		if err := r.fn(o, w); err != nil {
			return err
		}
		wall := time.Since(start)
		cli.Registry, cli.Tracer = o.Obs, o.Phases
		name := *benchName
		if name == "" {
			name = r.name
		}
		art := experiments.NewBenchArtifact(name, o.Obs, o, wall)
		art.SMT = smtClasses
		art.Backends = backendBench
		art.Scale = scaleBench
		if *compareSeq {
			// Rerun sequentially with tables discarded, so the artifact
			// records the fan-out speedup on this machine.
			so := opts
			so.Parallel = 1
			seqStart := time.Now()
			if err := r.fn(so, io.Discard); err != nil {
				return fmt.Errorf("sequential rerun: %w", err)
			}
			art.WallSequentialMs = time.Since(seqStart).Milliseconds()
		}
		if err := art.Write(filepath.Join(*benchDir, "BENCH_"+name+".json")); err != nil {
			return err
		}
		if *history != "" {
			if err := experiments.AppendHistory(*history, name, art, time.Now()); err != nil {
				return fmt.Errorf("-history: %w", err)
			}
		}
		return nil
	}
	if *experiment == "all" {
		for i, r := range all {
			if i > 0 {
				fmt.Fprintln(w)
			}
			start := time.Now()
			if err := runOne(r); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			// Timing goes to stderr: stdout stays byte-identical across
			// -parallel settings (and machines).
			fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", r.name, time.Since(start).Round(time.Millisecond))
		}
		return cli.Finish()
	}
	for _, r := range all {
		if r.name == *experiment {
			if err := runOne(r); err != nil {
				return err
			}
			return cli.Finish()
		}
	}
	return fmt.Errorf("unknown experiment %q", *experiment)
}
