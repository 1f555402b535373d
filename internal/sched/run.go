package sched

import (
	"fmt"
	"io"
	"time"

	"etsn/internal/core"
	"etsn/internal/gcl"
	"etsn/internal/model"
	"etsn/internal/obs"
	"etsn/internal/sim"
)

// synthesizePlain compiles GCLs without slot sharing and with best-effort
// only in unallocated time (the PERIOD configuration).
func synthesizePlain(sched *model.Schedule) (map[model.LinkID]*gcl.PortGCL, error) {
	return gcl.Synthesize(sched, gcl.Config{})
}

// Build constructs a plan for the given method. multiplier applies to
// PERIOD's slot budget only.
func Build(method Method, p Problem, multiplier int) (*Plan, error) {
	switch method {
	case MethodETSN:
		return BuildETSN(p.Core())
	case MethodPERIOD:
		return BuildPERIOD(p.Core(), multiplier)
	case MethodAVB:
		return BuildAVB(p.Core())
	case MethodCQF:
		return BuildCQF(p.Core(), 0)
	default:
		return nil, fmt.Errorf("%w: unknown method %v", ErrPlan, method)
	}
}

// Problem is a method-independent statement of a scenario: the topology,
// the TCT streams (with their E-TSN sharing flags), and the ECT streams.
type Problem struct {
	Network *model.Network
	TCT     []*model.Stream
	ECT     []*model.ECT
	// NProb sets the possibilities per ECT for E-TSN.
	NProb int
	// Spread staggers TCT slot placement over the period (realistic
	// dispersed schedules) instead of packing ASAP.
	Spread bool
	// Obs optionally collects scheduling metrics; Phases optionally traces
	// planner phases. Both pass through to core.Options.
	Obs    *obs.Registry
	Phases *obs.Tracer
	// Backend selects the scheduling backend (passes through to
	// core.Options.Backend; zero keeps core's auto default).
	Backend core.Backend
	// Timeout bounds the solve wall clock (passes through to
	// core.Options.Timeout; zero means unlimited).
	Timeout time.Duration
}

// Core converts to the scheduler's problem type. Evaluation plans run with
// the shared-reserve relaxation (see core.Options.SharedReserves); runtime
// deadline checks in the Fig. 15 experiment validate it.
func (p Problem) Core() *core.Problem {
	return &core.Problem{Network: p.Network, TCT: p.TCT, ECT: p.ECT,
		Opts: core.Options{NProb: p.NProb, SpreadFrames: p.Spread, SharedReserves: true,
			Obs: p.Obs, Phases: p.Phases, Backend: p.Backend, Timeout: p.Timeout}}
}

// SimOptions configures a plan simulation beyond the common parameters.
type SimOptions struct {
	// ECT lists the live event sources.
	ECT []*model.ECT
	// BE lists best-effort background flows.
	BE []sim.BETraffic
	// Duration is the simulated time span.
	Duration time.Duration
	// Seed drives event arrivals.
	Seed int64
	// ClockOffset optionally injects per-node clock error (802.1AS
	// residuals, e.g. ptp.Domain.OffsetFunc).
	ClockOffset func(model.NodeID, time.Duration) time.Duration
	// WarmUp discards messages created before this instant.
	WarmUp time.Duration
	// Trace receives the simulator's JSONL frame-event stream.
	Trace io.Writer
	// Faults lists timed fault injections applied during the run.
	Faults []sim.Fault
	// OnFault is invoked at each fault instant (recovery hook).
	OnFault func(*sim.Simulator, sim.Fault)
	// Obs optionally collects simulator runtime metrics.
	Obs *obs.Registry
	// TraceHops records per-hop completion latencies in the results.
	TraceHops bool
	// Attribution enables the per-frame causal latency decomposition
	// (sim.Config.Attribution).
	Attribution bool
	// Bounds overrides the analytic per-stream worst cases used for
	// conformance scoring; nil derives them from the plan (Plan.Bounds).
	Bounds map[model.StreamID]time.Duration
}

// Simulate runs a plan against stochastic ECT traffic (plus optional
// best-effort background flows) and returns the per-stream latency results.
func (pl *Plan) Simulate(network *model.Network, ects []*model.ECT, be []sim.BETraffic, duration time.Duration, seed int64) (*sim.Results, error) {
	return pl.SimulateOpts(network, SimOptions{ECT: ects, BE: be, Duration: duration, Seed: seed})
}

// SimulateOpts runs a plan with full simulation options.
func (pl *Plan) SimulateOpts(network *model.Network, o SimOptions) (*sim.Results, error) {
	traffic := make([]sim.ECTTraffic, 0, len(o.ECT))
	for _, e := range o.ECT {
		traffic = append(traffic, sim.ECTTraffic{Stream: e, Priority: pl.ECTPriority})
	}
	var cqf *sim.CQFConfig
	if pl.CQF != nil {
		cqf = &sim.CQFConfig{CycleTime: pl.CQF.CycleTime, QueueA: CQFQueueA, QueueB: CQFQueueB}
	}
	bounds := o.Bounds
	if bounds == nil {
		bounds = pl.Bounds(network, o.ECT)
	}
	s, err := sim.New(sim.Config{
		Network:     network,
		Schedule:    pl.Schedule,
		GCLs:        pl.GCLs,
		ECT:         traffic,
		BestEffort:  o.BE,
		Reserved:    pl.Reserved,
		Duration:    o.Duration,
		WarmUp:      o.WarmUp,
		Seed:        o.Seed,
		CBS:         pl.CBS,
		ClockOffset: o.ClockOffset,
		CQF:         cqf,
		Trace:       o.Trace,
		Faults:      o.Faults,
		OnFault:     o.OnFault,
		Obs:         o.Obs,
		TraceHops:   o.TraceHops,
		Attribution: o.Attribution,
		Bounds:      bounds,
	})
	if err != nil {
		return nil, fmt.Errorf("%s simulation: %w", pl.Method, err)
	}
	return s.Run()
}
