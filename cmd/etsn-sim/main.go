// etsn-sim plans a scenario with one of the three methods the paper
// compares (E-TSN, PERIOD, AVB) and simulates it against stochastic
// event-triggered traffic, printing per-stream latency statistics.
//
// Usage:
//
//	etsn-sim -config network.json [-method etsn|period|avb] [-duration 4s]
//	         [-seed 1] [-multiplier 1] [-json]
//	         [-backend auto|placer|greedy|smt|smt-incremental|cascade]
//	         [-fail-link SW1->SW2 -fail-at 1s -heal-after 500ms]
//	         [-metrics out.prom] [-trace-phases out.trace.json]
//	         [-pprof cpu=FILE|mem=FILE|HOST:PORT]
//	         [-attrib] [-trace-hops] [-trace FILE] [-trace-lanes FILE]
//	         [-dash HOST:PORT [-dash-history bench/history.jsonl]]
//
// -backend selects the E-TSN scheduling backend (the placers, the exact SMT
// solvers, or "cascade" — those one at a time in priority order, stopping
// at the first verified plan), overriding the configuration's
// options.backend. It only affects -method etsn.
//
// Exit codes are etsn-sched's and the daemon's (service.Classify):
// 1 internal, 2 invalid input (a bad configuration or a usage error,
// rejected before anything is planned or served), 3 infeasible, 4 solver
// timeout.
//
// Of the configuration's "options" keys etsn-sim honours n_prob, spread,
// backend and timeout_ms. It plans through sched.Problem,
// the evaluation setup all three methods share, which always uses the
// shared-reserve relaxation and the configured paths: shared_reserves,
// minimize_ect and routing are ignored here (etsn-sched honours them).
//
// -dash serves the live observability dashboard (internal/dash) on the
// given address: the embedded page at /, JSON snapshots at /api/metrics,
// an SSE stream at /api/metrics/stream, and — with -dash-history — the
// wall-time trend at /api/trend. The process prints the bound address to
// stderr, runs the simulation, then keeps serving until SIGINT/SIGTERM,
// at which point it drains gracefully and exits 0.
//
// -attrib enables the per-frame causal latency decomposition: each row
// gains its analytic bound, worst slack, miss count, and dominant latency
// phase, the -trace JSONL stream gains "attrib" and "slack" records
// (analyze with etsn-trace), and -trace-lanes renders the attributed
// frames as a Chrome trace_event lane file (one track per link).
// -trace-hops records per-hop completion latencies in the results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"etsn/internal/core"
	"etsn/internal/dash"
	"etsn/internal/model"
	"etsn/internal/obs"
	"etsn/internal/qcc"
	"etsn/internal/sched"
	"etsn/internal/service"
	"etsn/internal/sim"
	"etsn/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "etsn-sim:", err)
		os.Exit(service.Classify(err).ExitCode())
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("etsn-sim", flag.ContinueOnError)
	configPath := fs.String("config", "", "path to the Qcc-style JSON configuration (required)")
	methodName := fs.String("method", "etsn", "scheduling method: etsn, period, avb, or cqf")
	duration := fs.Duration("duration", 4*time.Second, "simulated time span")
	seed := fs.Int64("seed", 1, "random seed for event arrivals")
	multiplier := fs.Int("multiplier", 1, "PERIOD slot-budget multiplier")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	tracePath := fs.String("trace", "", "write a JSONL frame-event trace to this file")
	failLink := fs.String("fail-link", "", "inject a link failure on this link (\"from->to\", both directions)")
	failAt := fs.Duration("fail-at", time.Second, "instant the injected link failure occurs")
	healAfter := fs.Duration("heal-after", 0, "bring the failed link back up after this long (0 = stays down)")
	backend := fs.String("backend", "", "E-TSN scheduling backend (overrides the config): auto, placer, greedy, smt, smt-incremental, or cascade")
	attrib := fs.Bool("attrib", false, "attribute each frame's latency to queue/gate/preempt/tx/prop phases and score bound conformance")
	traceHops := fs.Bool("trace-hops", false, "record per-hop completion latencies in the results")
	traceLanes := fs.String("trace-lanes", "", "write attributed frames as a Chrome trace_event lane file (requires -attrib)")
	dashHistory := fs.String("dash-history", "", "history.jsonl file backing the dashboard's /api/trend (requires -dash)")
	cli := dash.NewCLI("etsn-sim", fs)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", qcc.ErrBadConfig, err)
	}
	switch {
	case *configPath == "":
		fs.Usage()
		return fmt.Errorf("%w: missing -config", qcc.ErrBadConfig)
	case *traceLanes != "" && !*attrib:
		return fmt.Errorf("%w: -trace-lanes requires -attrib", qcc.ErrBadConfig)
	case *dashHistory != "" && !cli.Dash():
		return fmt.Errorf("%w: -dash-history requires -dash", qcc.ErrBadConfig)
	}
	method, err := parseMethod(*methodName)
	if err != nil {
		return err
	}
	defer cli.End()
	if err := cli.Begin(dash.Options{HistoryPath: *dashHistory}); err != nil {
		return err
	}
	reg, phases := cli.Registry, cli.Tracer
	f, err := os.Open(*configPath)
	if err != nil {
		return err
	}
	defer f.Close()
	cfg, err := qcc.Load(f)
	if err != nil {
		return err
	}
	if *backend != "" {
		if _, err := core.ParseBackend(*backend); err != nil {
			return err
		}
		cfg.Options.Backend = *backend
	}
	p, err := cfg.BuildProblem()
	if err != nil {
		return err
	}
	prob := sched.Problem{
		Network: p.Network,
		TCT:     p.TCT,
		ECT:     p.ECT,
		NProb:   p.Opts.NProb,
		Spread:  p.Opts.SpreadFrames,
		Obs:     reg,
		Phases:  phases,
		Backend: p.Opts.Backend,
		Timeout: p.Opts.Timeout,
	}
	plan, err := sched.Build(method, prob, *multiplier)
	if err != nil {
		return err
	}
	simOpts := sched.SimOptions{ECT: p.ECT, Duration: *duration, Seed: *seed, Obs: reg,
		Attribution: *attrib, TraceHops: *traceHops}
	if *failLink != "" {
		lid, err := model.ParseLinkID(*failLink)
		if err != nil {
			return fmt.Errorf("-fail-link: %w", err)
		}
		simOpts.Faults = append(simOpts.Faults,
			sim.Fault{At: *failAt, Kind: sim.FaultLinkDown, Link: lid})
		if *healAfter > 0 {
			simOpts.Faults = append(simOpts.Faults,
				sim.Fault{At: *failAt + *healAfter, Kind: sim.FaultLinkUp, Link: lid})
		}
	}
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		simOpts.Trace = traceFile
	}
	spSim := phases.Begin("simulate", "method", method.String())
	results, err := plan.SimulateOpts(p.Network, simOpts)
	spSim.End()
	if err != nil {
		return err
	}
	if *traceLanes != "" {
		lf, err := os.Create(*traceLanes)
		if err != nil {
			return err
		}
		if err := obs.WriteLaneTrace(lf, results.FrameLanes()); err != nil {
			lf.Close()
			return err
		}
		if err := lf.Close(); err != nil {
			return err
		}
	}
	if cli.Runner != nil && *attrib {
		cli.Runner.Server.SetLanes(results.FrameLanes)
	}

	type row struct {
		Stream   string  `json:"stream"`
		Kind     string  `json:"kind"`
		Count    int     `json:"count"`
		MeanUs   float64 `json:"mean_us"`
		WorstUs  float64 `json:"worst_us"`
		JitterUs float64 `json:"jitter_us"`
		Drops    int     `json:"drops,omitempty"`
		// Conformance columns, present for streams with an analytic bound.
		BoundUs    float64 `json:"bound_us,omitempty"`
		MinSlackUs float64 `json:"min_slack_us,omitempty"`
		Misses     int     `json:"misses,omitempty"`
		Checked    int     `json:"checked,omitempty"`
		// Dominant is the stream's heaviest latency phase (with -attrib).
		Dominant string `json:"dominant_phase,omitempty"`
	}
	isECT := make(map[model.StreamID]bool, len(p.ECT))
	for _, e := range p.ECT {
		isECT[e.ID] = true
	}
	var rows []row
	for _, id := range results.Streams() {
		s := stats.Summarize(results.Latencies(id))
		kind := "TCT"
		if isECT[id] {
			kind = "ECT"
		}
		r := row{
			Stream:   string(id),
			Kind:     kind,
			Count:    s.Count,
			MeanUs:   us(s.Mean),
			WorstUs:  us(s.Max),
			JitterUs: us(s.StdDev),
			Drops:    results.Drops(id),
		}
		if c, ok := results.Conformance(id); ok {
			r.BoundUs = us(c.Bound)
			r.MinSlackUs = us(c.MinSlack)
			r.Misses = c.Misses
			r.Checked = c.Checked
		}
		if prof, ok := results.Attribution(id); ok {
			r.Dominant = prof.DominantPhase().String()
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Kind != rows[j].Kind {
			return rows[i].Kind < rows[j].Kind // ECT first
		}
		return rows[i].Stream < rows[j].Stream
	})

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
		return cli.Finish()
	}
	fmt.Printf("method %s, %v simulated, seed %d\n", method, *duration, *seed)
	fmt.Printf("%-14s %-5s %8s %12s %12s %12s %6s %12s %12s %6s %-8s\n",
		"stream", "kind", "msgs", "mean(us)", "worst(us)", "jitter(us)", "drops",
		"bound(us)", "slack(us)", "miss", "phase")
	for _, r := range rows {
		bound, slack, miss := "-", "-", "-"
		if r.Checked > 0 {
			bound = fmt.Sprintf("%.2f", r.BoundUs)
			slack = fmt.Sprintf("%.2f", r.MinSlackUs)
			miss = fmt.Sprintf("%d", r.Misses)
		}
		phase := r.Dominant
		if phase == "" {
			phase = "-"
		}
		fmt.Printf("%-14s %-5s %8d %12.2f %12.2f %12.2f %6d %12s %12s %6s %-8s\n",
			r.Stream, r.Kind, r.Count, r.MeanUs, r.WorstUs, r.JitterUs, r.Drops,
			bound, slack, miss, phase)
	}
	return cli.Finish()
}

func parseMethod(name string) (sched.Method, error) {
	switch name {
	case "etsn", "e-tsn", "E-TSN":
		return sched.MethodETSN, nil
	case "period", "PERIOD":
		return sched.MethodPERIOD, nil
	case "avb", "AVB":
		return sched.MethodAVB, nil
	case "cqf", "CQF":
		return sched.MethodCQF, nil
	default:
		return 0, fmt.Errorf("%w: unknown method %q (want etsn, period, avb, or cqf)", sched.ErrPlan, name)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
