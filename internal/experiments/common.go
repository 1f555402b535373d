package experiments

import (
	"fmt"
	"io"
	"time"

	"etsn/internal/core"
	"etsn/internal/model"
	"etsn/internal/obs"
	"etsn/internal/sched"
	"etsn/internal/sim"
	"etsn/internal/stats"
)

// RunOptions tunes one experiment run.
type RunOptions struct {
	// Duration is the simulated time span; defaults to DefaultDuration.
	Duration time.Duration
	// Seed drives event arrivals; defaults to DefaultSeed.
	Seed int64
	// Multiplier scales PERIOD's slot budget (Fig. 12); defaults to 1.
	Multiplier int
	// Obs optionally collects scheduler and simulator metrics.
	Obs *obs.Registry
	// Phases optionally traces planner and simulation phases.
	Phases *obs.Tracer
	// Parallel bounds the worker pool that runs independent experiment
	// cells (load x method grid points) concurrently. Values <= 1 run the
	// exact legacy sequential path. The merged result is identical either
	// way: cells land in fixed index order regardless of completion order.
	Parallel int
	// Attribution enables the per-frame causal latency decomposition in
	// every simulation the experiment runs (sim.Config.Attribution).
	// Bound conformance is scored regardless; attribution additionally
	// explains each miss by its dominant phase.
	Attribution bool
	// Backend selects the scheduling backend for every plan the experiment
	// builds (passes through to core.Options.Backend; zero keeps core's
	// auto default).
	Backend core.Backend
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Duration == 0 {
		o.Duration = DefaultDuration
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.Multiplier == 0 {
		o.Multiplier = 1
	}
	return o
}

// MethodResult is the outcome of running one method on one scenario.
type MethodResult struct {
	// Method identifies the scheduling approach.
	Method sched.Method
	// Plan is the schedule/GCL bundle that ran.
	Plan *sched.Plan
	// Raw is the simulator output.
	Raw *sim.Results
	// ECT maps each ECT stream to its latency summary.
	ECT map[model.StreamID]stats.Summary
	// ECTSamples holds the raw latency samples per ECT stream (for CDFs).
	ECTSamples map[model.StreamID][]time.Duration
	// TCT maps each TCT stream to its latency summary.
	TCT map[model.StreamID]stats.Summary
	// Conformance scores each bounded stream's deliveries against its
	// analytic worst case (derived from the plan by SimulateOpts).
	Conformance map[model.StreamID]sim.Conformance
}

// RunMethod plans the scenario with the given method and simulates it.
func RunMethod(s *Scenario, m sched.Method, opts RunOptions) (*MethodResult, error) {
	opts = opts.withDefaults()
	prob := s.Problem()
	prob.Obs = opts.Obs
	prob.Phases = opts.Phases
	prob.Backend = opts.Backend
	plan, err := sched.Build(m, prob, opts.Multiplier)
	if err != nil {
		return nil, fmt.Errorf("build %v: %w", m, err)
	}
	spSim := opts.Phases.Begin("simulate", "method", m.String())
	raw, err := plan.SimulateOpts(s.Network, sched.SimOptions{
		ECT: s.ECT, BE: s.BE, Duration: opts.Duration, Seed: opts.Seed, Obs: opts.Obs,
		Attribution: opts.Attribution,
	})
	spSim.End()
	if err != nil {
		return nil, fmt.Errorf("simulate %v: %w", m, err)
	}
	out := &MethodResult{
		Method:     m,
		Plan:       plan,
		Raw:        raw,
		ECT:        make(map[model.StreamID]stats.Summary, len(s.ECT)),
		ECTSamples: make(map[model.StreamID][]time.Duration, len(s.ECT)),
		TCT:        make(map[model.StreamID]stats.Summary, len(s.TCT)),
	}
	for _, e := range s.ECT {
		lats := raw.Latencies(e.ID)
		out.ECT[e.ID] = stats.Summarize(lats)
		out.ECTSamples[e.ID] = lats
	}
	for _, t := range s.TCT {
		out.TCT[t.ID] = stats.Summarize(raw.Latencies(t.ID))
	}
	bounded := raw.BoundedStreams()
	out.Conformance = make(map[model.StreamID]sim.Conformance, len(bounded))
	for _, id := range bounded {
		if c, ok := raw.Conformance(id); ok {
			out.Conformance[id] = c
		}
	}
	return out, nil
}

// fmtConformance renders one stream's conformance cell for figure tables:
// "ok slack>=Xus" when every delivery met the bound, a miss count plus the
// worst overrun otherwise, or "unbounded" for methods with no analytic
// worst case (AVB ECT).
func fmtConformance(c sim.Conformance, ok bool) string {
	switch {
	case !ok:
		return "unbounded"
	case c.Checked == 0:
		return "unchecked"
	case c.Misses == 0:
		return fmt.Sprintf("ok slack>=%s", fmtDur(c.MinSlack))
	default:
		return fmt.Sprintf("MISS %d/%d worst=%s", c.Misses, c.Checked, fmtDur(-c.MinSlack))
	}
}

// CheckDropAccounting cross-checks a run's drop bookkeeping before a figure
// is built on top of it: the per-port drop total must equal the per-stream
// sum, an event stream cannot deliver more messages than it emitted, and no
// critical frame — TCT or ECT — may have been dropped or lost. Queue
// pressure lands on best-effort traffic only; a critical drop in a
// fault-free run means the schedule and the simulator disagree.
func CheckDropAccounting(raw *sim.Results, tct []*model.Stream, ect []*model.ECT) error {
	sum := 0
	for _, id := range raw.DroppedStreams() {
		sum += raw.Drops(id)
	}
	if sum != raw.TotalDrops() {
		return fmt.Errorf("drop accounting: per-stream drops sum to %d, port total is %d",
			sum, raw.TotalDrops())
	}
	for _, s := range tct {
		if d := raw.Drops(s.ID); d > 0 {
			return fmt.Errorf("drop accounting: TCT stream %s dropped %d frames", s.ID, d)
		}
	}
	for _, e := range ect {
		if d, l := raw.Drops(e.ID), raw.Lost(e.ID); d > 0 || l > 0 {
			return fmt.Errorf("drop accounting: ECT stream %s dropped %d and lost %d frames",
				e.ID, d, l)
		}
		if del, em := raw.Delivered(e.ID), raw.Emitted(e.ID); del > em {
			return fmt.Errorf("drop accounting: ECT stream %s delivered %d of %d emitted",
				e.ID, del, em)
		}
	}
	return nil
}

// AllMethods lists the compared methods in the paper's order.
var AllMethods = []sched.Method{sched.MethodETSN, sched.MethodPERIOD, sched.MethodAVB}

// fmtDur renders a duration in microseconds with two decimals, the
// resolution the paper reports.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fus", float64(d)/float64(time.Microsecond))
}

// printSummaryRow writes one "method: avg worst jitter n" table row.
func printSummaryRow(w io.Writer, label string, s stats.Summary) {
	fmt.Fprintf(w, "  %-14s avg=%-12s worst=%-12s jitter=%-12s n=%d\n",
		label, fmtDur(s.Mean), fmtDur(s.Max), fmtDur(s.StdDev), s.Count)
}
