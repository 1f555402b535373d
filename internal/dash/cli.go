package dash

import (
	"flag"
	"fmt"
	"os"
	"time"

	"etsn/internal/obs"
)

// CLI is the observability surface etsn-sched, etsn-sim and etsn-bench
// share: the -metrics, -trace-phases, -pprof and -dash flags and the run
// state behind them, declared and implemented here once.
type CLI struct {
	prog                              string
	metrics, tracePhases, pprof, addr *string
	stopPprof                         func() error

	// Registry and Tracer are what -metrics and -trace-phases export and
	// -dash serves. Begin creates the ones the flags call for (nil
	// otherwise, which disables instrumentation); etsn-bench points them at
	// each experiment's own pair instead.
	Registry *obs.Registry
	Tracer   *obs.Tracer
	// Runner is the live dashboard, nil without -dash.
	Runner *Runner
}

// NewCLI declares the shared flags on fs; prog prefixes stderr messages.
func NewCLI(prog string, fs *flag.FlagSet) *CLI {
	return &CLI{
		prog:        prog,
		metrics:     fs.String("metrics", "", "write run metrics to this file (.json for JSON, else Prometheus text)"),
		tracePhases: fs.String("trace-phases", "", "write a Chrome trace_event JSON file of planner/simulation phases"),
		pprof:       fs.String("pprof", "", "profiling: cpu=FILE, mem=FILE, or HOST:PORT for a live pprof server"),
		addr:        fs.String("dash", "", "serve the live dashboard on this address (e.g. :8080; keeps serving after the run until SIGINT/SIGTERM)"),
	}
}

// Dash reports whether -dash was given.
func (c *CLI) Dash() bool { return *c.addr != "" }

// Begin starts profiling, creates the registry and tracer the flags call
// for and, under -dash, serves the dashboard over them (opts carries the
// command's history and trend settings). Pair it with a deferred End.
func (c *CLI) Begin(opts Options) error {
	stop, err := obs.StartPprof(*c.pprof)
	if err != nil {
		return err
	}
	c.stopPprof = stop
	if *c.metrics != "" || c.Dash() {
		c.Registry = obs.NewRegistry()
	}
	if *c.tracePhases != "" || c.Dash() {
		c.Tracer = obs.NewTracer()
	}
	if !c.Dash() {
		return nil
	}
	opts.Registry, opts.Tracer = c.Registry, c.Tracer
	c.Runner, err = Start(*c.addr, NewServer(opts))
	if err != nil {
		return fmt.Errorf("-dash: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: dashboard listening on http://%s\n", c.prog, c.Runner.Addr())
	return nil
}

// End stops profiling and, on an early exit, the dashboard.
func (c *CLI) End() {
	if c.stopPprof != nil {
		_ = c.stopPprof()
	}
	if c.Runner != nil {
		_ = c.Runner.Shutdown(2 * time.Second)
	}
}

// Finish is the tail of a successful run: it writes the -metrics and
// -trace-phases files, then under -dash keeps serving until
// SIGINT/SIGTERM and drains gracefully (SSE clients get a bye frame).
func (c *CLI) Finish() error {
	if *c.metrics != "" && c.Registry != nil {
		if err := c.Registry.WriteMetricsFile(*c.metrics); err != nil {
			return err
		}
	}
	if *c.tracePhases != "" && c.Tracer != nil {
		if err := c.Tracer.WriteChromeTraceFile(*c.tracePhases); err != nil {
			return err
		}
	}
	if c.Runner == nil {
		return nil
	}
	fmt.Fprintf(os.Stderr, "%s: run complete; dashboard serving on http://%s (Ctrl-C to exit)\n", c.prog, c.Runner.Addr())
	c.Runner.WaitSignal()
	return c.Runner.Shutdown(5 * time.Second)
}
