package experiments

import (
	"fmt"
	"io"
	"time"

	"etsn/internal/core"
	"etsn/internal/model"
	"etsn/internal/sched"
	"etsn/internal/stats"
	"etsn/internal/traffic"
)

// TreeNetwork builds a two-level switch tree: a core switch, `spine` edge
// switches under it, and `leaves` devices per edge switch. This is the
// scalability topology (larger than either of the paper's setups).
func TreeNetwork(spine, leaves int) (*model.Network, error) {
	n := model.NewNetwork()
	cfg := model.LinkConfig{Bandwidth: LinkRate, PropDelay: 100 * time.Nanosecond}
	if err := n.AddSwitch("CORE"); err != nil {
		return nil, err
	}
	dev := 1
	for s := 1; s <= spine; s++ {
		sw := model.NodeID(fmt.Sprintf("EDGE%d", s))
		if err := n.AddSwitch(sw); err != nil {
			return nil, err
		}
		if err := n.AddLink("CORE", sw, cfg); err != nil {
			return nil, err
		}
		for k := 0; k < leaves; k++ {
			d := model.NodeID(fmt.Sprintf("D%d", dev))
			dev++
			if err := n.AddDevice(d); err != nil {
				return nil, err
			}
			if err := n.AddLink(d, sw, cfg); err != nil {
				return nil, err
			}
		}
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// ScaleResult reports scheduling and runtime behaviour on the tree
// topology.
type ScaleResult struct {
	// Devices, Switches, Streams describe the instance size.
	Devices  int
	Switches int
	Streams  int
	// PlanTime is the wall-clock scheduling time.
	PlanTime time.Duration
	// Slots is the total slot count of the schedule.
	Slots int
	// ECT is the event stream's latency summary.
	ECT stats.Summary
	// Bound is its runtime worst-case bound.
	Bound time.Duration
	// TCTDeadlineMisses counts violations across all TCT streams.
	TCTDeadlineMisses int
}

// Scale-scenario dimensions: a 24-device / 5-switch tree carrying 80 TCT
// streams at 50% load with one cross-tree ECT stream.
const (
	scaleSpine  = 4
	scaleLeaves = 6
	scaleTCT    = 80
)

// buildScaleScenario constructs the scalability scenario.
func buildScaleScenario(seed int64) (*Scenario, error) {
	n, err := TreeNetwork(scaleSpine, scaleLeaves)
	if err != nil {
		return nil, err
	}
	tct, err := traffic.Generate(traffic.Config{
		Network:       n,
		NumStreams:    scaleTCT,
		Periods:       SimPeriods,
		TargetLoad:    0.5,
		ShareFraction: 1,
		E2EFactor:     2,
		Seed:          seed,
	})
	if err != nil {
		return nil, err
	}
	path, err := n.ShortestPath("D1", model.NodeID(fmt.Sprintf("D%d", scaleSpine*scaleLeaves)))
	if err != nil {
		return nil, err
	}
	ect := &model.ECT{ID: "ect", Path: path, E2E: SimInterevent,
		LengthBytes: model.MTUBytes, MinInterevent: SimInterevent}
	be, err := backgroundFlows(n, seed)
	if err != nil {
		return nil, err
	}
	return &Scenario{Network: n, TCT: tct, ECT: []*model.ECT{ect}, BE: be,
		NProb: SimNProb, Load: 0.5}, nil
}

// Scale plans and simulates the tree scenario.
func Scale(opts RunOptions) (*ScaleResult, error) {
	opts = opts.withDefaults()
	scen, err := buildScaleScenario(opts.Seed)
	if err != nil {
		return nil, err
	}
	n, tct := scen.Network, scen.TCT

	start := time.Now()
	plan, err := sched.Build(sched.MethodETSN, scen.Problem(), 1)
	if err != nil {
		return nil, fmt.Errorf("scale planning: %w", err)
	}
	planTime := time.Since(start)

	raw, err := plan.SimulateOpts(n, sched.SimOptions{
		ECT: scen.ECT, BE: scen.BE, Duration: opts.Duration, Seed: opts.Seed,
		Obs: opts.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("scale simulation: %w", err)
	}
	bound, err := core.ECTWorstCaseBound(n, plan.Result, "ect")
	if err != nil {
		return nil, err
	}
	out := &ScaleResult{
		Devices:  scaleSpine * scaleLeaves,
		Switches: scaleSpine + 1,
		Streams:  scaleTCT,
		PlanTime: planTime,
		Slots:    plan.Schedule.NumSlots(),
		ECT:      stats.Summarize(raw.Latencies("ect")),
		Bound:    bound,
	}
	for _, s := range tct {
		for _, l := range raw.Latencies(s.ID) {
			if l > s.E2E {
				out.TCTDeadlineMisses++
			}
		}
	}
	return out, nil
}

// WriteTable renders the scale report.
func (r *ScaleResult) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "Extension — scalability: 2-level tree beyond the paper's topologies")
	fmt.Fprintf(w, "  %d devices, %d switches, %d TCT streams + 1 ECT at 50%% load\n",
		r.Devices, r.Switches, r.Streams)
	fmt.Fprintf(w, "  planned %d slots in %v\n", r.Slots, r.PlanTime.Round(time.Millisecond))
	printSummaryRow(w, "ECT (E-TSN)", r.ECT)
	fmt.Fprintf(w, "  runtime worst-case bound: %s; TCT deadline misses: %d\n",
		fmtDur(r.Bound), r.TCTDeadlineMisses)
}
