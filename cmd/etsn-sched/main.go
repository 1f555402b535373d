// etsn-sched runs the CNC pipeline offline: it reads a Qcc-style JSON
// configuration (topology + stream requirements), computes a verified E-TSN
// schedule, and writes the deployment (per-link slot tables and per-port
// Gate Control Lists) as JSON.
//
// Usage:
//
//	etsn-sched -config network.json [-out deployment.json] [-quiet] [-v]
//	           [-bounds bounds.json]
//	           [-backend auto|placer|greedy|smt|smt-incremental|cascade]
//	           [-metrics out.prom] [-trace-phases out.trace.json]
//	           [-pprof cpu=FILE|mem=FILE|HOST:PORT]
//	           [-dash HOST:PORT]
//
// -dash serves the live observability dashboard (internal/dash) on the
// given address — planner metrics and phase spans over JSON/SSE plus the
// embedded page — and keeps serving after the deployment is written until
// SIGINT/SIGTERM, then drains gracefully and exits 0.
//
// -backend selects the scheduling backend, overriding the configuration's
// options.backend: the first-fit or ALAP-greedy placer, the exact SMT
// solvers, or "cascade" — those one at a time in priority order, stopping
// at the first verified plan.
//
// -bounds FILE writes the analytic per-stream worst-case latencies as
// JSON ({"stream": nanoseconds}), the same bounds the simulator scores
// conformance against (sched.Plan.Bounds).
//
// Exit codes (service.Classify): 1 internal, 2 invalid input (a bad
// configuration or a usage error), 3 infeasible, 4 solver timeout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"etsn/internal/core"
	"etsn/internal/dash"
	"etsn/internal/gcl"
	"etsn/internal/qcc"
	"etsn/internal/sched"
	"etsn/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "etsn-sched:", err)
		// Machine-readable exit codes, shared with the daemon's HTTP
		// mapping (service.Classify): 1 internal, 2 invalid input,
		// 3 infeasible, 4 solver timeout.
		os.Exit(service.Classify(err).ExitCode())
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("etsn-sched", flag.ContinueOnError)
	configPath := fs.String("config", "", "path to the Qcc-style JSON configuration (required)")
	outPath := fs.String("out", "", "path for the deployment JSON (default: stdout)")
	quiet := fs.Bool("quiet", false, "suppress the human-readable summary on stderr")
	gclText := fs.Bool("gcl", false, "print the gate programs as admin-style tables instead of JSON")
	verbose := fs.Bool("v", false, "print solver effort statistics on stderr")
	backend := fs.String("backend", "", "scheduling backend (overrides the config): auto, placer, greedy, smt, smt-incremental, or cascade")
	boundsPath := fs.String("bounds", "", "write the analytic per-stream worst-case bounds as JSON to this file")
	cli := dash.NewCLI("etsn-sched", fs)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", qcc.ErrBadConfig, err)
	}
	if *configPath == "" {
		fs.Usage()
		return fmt.Errorf("%w: missing -config", qcc.ErrBadConfig)
	}
	defer cli.End()
	if err := cli.Begin(dash.Options{}); err != nil {
		return err
	}
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
			return fmt.Errorf("%w: %v", qcc.ErrBadConfig, err)
		}
		cfg.Options.Backend = *backend
	}
	cfg.Obs, cfg.Phases = cli.Registry, cli.Tracer
	dep, err := qcc.Compute(cfg)
	if err != nil {
		return err
	}
	if *boundsPath != "" {
		if err := writeBounds(*boundsPath, dep); err != nil {
			return fmt.Errorf("-bounds: %w", err)
		}
	}
	if !*quiet {
		printSummary(dep)
	}
	if *verbose {
		printSolverStats(dep)
	}
	out := os.Stdout
	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer of.Close()
		out = of
	}
	if *gclText {
		gcl.WriteAllText(out, dep.GCLs)
	} else if err := dep.WriteJSON(out); err != nil {
		return err
	}
	return cli.Finish()
}

// writeBounds exports the analytic per-stream worst cases as a flat
// {"stream": nanoseconds} JSON object — machine-readable input for
// downstream conformance checks outside the simulator.
func writeBounds(path string, dep *qcc.Deployment) error {
	pl := &sched.Plan{Method: sched.MethodETSN, Schedule: dep.Result.Schedule,
		GCLs: dep.GCLs, Result: dep.Result}
	bounds := pl.Bounds(dep.Network, dep.Problem.ECT)
	out := make(map[string]int64, len(bounds))
	for id, b := range bounds {
		out[string(id)] = int64(b)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSolverStats reports the backend's cumulative search effort — for the
// SMT backends this covers every incremental re-solve and Minimize probe.
func printSolverStats(dep *qcc.Deployment) {
	st := dep.Result.SolverStats
	fmt.Fprintf(os.Stderr, "solver: %d solves, %d decisions, %d propagations, %d conflicts, %d theory checks, %d clauses, %d vars\n",
		st.Solves, st.Decisions, st.Propagations, st.Conflicts, st.TheoryChecks, st.Clauses, st.Vars)
	fmt.Fprintf(os.Stderr, "solver: %d restarts, %d learned clauses, %d theory propagations, max decision level %d\n",
		st.Restarts, st.Learned, st.TheoryProps, st.MaxDecisionLevel)
}

func printSummary(dep *qcc.Deployment) {
	sched := dep.Result.Schedule
	st := gcl.Summarize(dep.GCLs)
	fmt.Fprintf(os.Stderr, "schedule: %d streams, %d slots, hyperperiod %v (backend %s)\n",
		len(sched.Streams), sched.NumSlots(), sched.Hyperperiod, dep.Result.BackendUsed)
	fmt.Fprintf(os.Stderr, "gcls: %d ports, %d entries (max %d per port)\n",
		st.Ports, st.Entries, st.MaxEntriesPerPort)
	for _, s := range dep.Problem.TCT {
		wc, err := core.TCTWorstCase(dep.Network, dep.Result, s.ID)
		if err != nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "  TCT %-12s worst case %-12v deadline %v\n", s.ID, wc, s.E2E)
	}
	for _, e := range dep.Problem.ECT {
		bound, err := core.ECTWorstCaseBound(dep.Network, dep.Result, e.ID)
		if err != nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "  ECT %-12s worst case %-12v deadline %v\n", e.ID, bound, e.E2E)
	}
}
