package main

// The testbed-sim workload. One op is one cell of the paper's Sec. VI
// figures: plan the testbed scenario and simulate it under each of E-TSN,
// PERIOD and AVB, with the event-arrival seed rotating over eight fixed
// seeds.

import (
	"fmt"
	"time"

	"etsn/internal/model"
	"etsn/internal/qcc"
	"etsn/internal/sched"
	"etsn/internal/sim"
)

const simulatedSpan = 4 * time.Second

var simMethods = []sched.Method{sched.MethodETSN, sched.MethodPERIOD, sched.MethodAVB}

// simCounts are one arrival seed's exact simulator counts over the three
// methods. A simulator speed-up must leave them identical.
type simCounts struct{ events, delivered, drops int64 }

type simRunner struct {
	doc   []byte
	be    []beFlow
	seeds [8]int64
	// delivered[i] is seed i's delivered-message count from its first
	// run; every repeat must match. counts holds the registry's view,
	// available on traced ops only.
	delivered [8]int
	counts    [8]*simCounts
	// Of the last E-TSN plan.
	expanded, slots, entries int
	simAllocs, simEvents     float64 // summed over traced sim.run calls
	simNs                    float64
}

func newSimRunner(doc []byte, be []beFlow, seeds [8]int64) (runner, error) {
	r := &simRunner{doc: doc, be: be, seeds: seeds}
	for i := range r.delivered {
		r.delivered[i] = -1
	}
	if err := r.op(&opCtx{}); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return r, nil
}

func (r *simRunner) clients() int { return 1 }
func (r *simRunner) close()       {}

// check is empty: the op's own checks are lookups in its results.
func (r *simRunner) check(*opCtx) error { return nil }

func (r *simRunner) op(c *opCtx) error {
	end := c.span("qcc.parse")
	cfg, err := qcc.Parse(r.doc)
	end()
	if err != nil {
		return err
	}
	end = c.span("qcc.route")
	p, err := cfg.BuildProblem()
	var be []sim.BETraffic
	for _, f := range r.be {
		if err != nil {
			break
		}
		var path []model.LinkID
		path, err = p.Network.ShortestPath(model.NodeID(f.Src), model.NodeID(f.Dst))
		be = append(be, sim.BETraffic{Path: path, PayloadBytes: f.Payload, MeanGap: time.Duration(f.GapNs)})
	}
	end()
	if err != nil {
		return err
	}
	problem := sched.Problem{Network: p.Network, TCT: p.TCT, ECT: p.ECT,
		NProb: cfg.Options.NProb, Spread: cfg.Options.Spread,
		Obs: c.registry(), Phases: c.phases()}

	slot := c.seq % len(r.seeds)
	before := r.registryCounts(c)
	delivered := 0
	for _, method := range simMethods {
		end = c.span("sched.build")
		plan, err := sched.Build(method, problem, 1)
		end()
		if err != nil {
			return fmt.Errorf("%s plan: %w", method, err)
		}
		var results *sim.Results
		end = c.span("sim.run")
		run := func() {
			results, err = plan.SimulateOpts(p.Network, sched.SimOptions{ECT: p.ECT, BE: be,
				Duration: simulatedSpan, Seed: r.seeds[slot], Obs: c.registry()})
		}
		if c.traced() {
			t0 := time.Now()
			_, objects := allocsDuring(run)
			r.simNs += float64(time.Since(t0))
			r.simAllocs += objects
		} else {
			run()
		}
		end()
		if err != nil {
			return fmt.Errorf("%s simulation: %w", method, err)
		}
		for _, id := range results.Streams() {
			delivered += results.Delivered(id)
		}
		if method != sched.MethodETSN {
			continue
		}
		// The paper's guarantees are hard gates for E-TSN: no critical
		// message past its analytic bound, no ECT message lost.
		for _, id := range results.BoundedStreams() {
			if conf, ok := results.Conformance(id); ok && conf.Misses != 0 {
				return fmt.Errorf("E-TSN stream %s: %d of %d messages past the %v bound", id, conf.Misses, conf.Checked, conf.Bound)
			}
		}
		for _, e := range p.ECT {
			inFlight := results.Emitted(e.ID) - results.Delivered(e.ID)
			if results.Drops(e.ID) != 0 || results.Lost(e.ID) != 0 || inFlight > 1 {
				return fmt.Errorf("E-TSN lost ECT messages of %s: %d emitted, %d delivered, %d dropped",
					e.ID, results.Emitted(e.ID), results.Delivered(e.ID), results.Drops(e.ID))
			}
		}
		r.expanded = len(plan.Result.Expanded)
		r.slots = plan.Schedule.NumSlots()
		r.entries = 0
		for _, g := range plan.GCLs {
			r.entries += len(g.Entries)
		}
	}

	// The simulator is deterministic per seed: every repeat must count
	// the same.
	if r.delivered[slot] < 0 {
		r.delivered[slot] = delivered
	} else if r.delivered[slot] != delivered {
		return fmt.Errorf("arrival seed %d delivered %d messages, %d on its first run", slot, delivered, r.delivered[slot])
	}
	if c.traced() {
		after := r.registryCounts(c)
		got := simCounts{after.events - before.events, after.delivered - before.delivered, after.drops - before.drops}
		r.simEvents += float64(got.events)
		if r.counts[slot] == nil {
			r.counts[slot] = &got
		} else if *r.counts[slot] != got {
			return fmt.Errorf("arrival seed %d counted %+v, %+v on its first traced run", slot, got, *r.counts[slot])
		}
	}
	return nil
}

func (r *simRunner) registryCounts(c *opCtx) simCounts {
	reg := c.registry()
	return simCounts{
		events:    reg.CounterValue("etsn_sim_events_total"),
		delivered: reg.CounterValue("etsn_sim_delivered_total"),
		drops:     reg.CounterValue("etsn_sim_drops_total"),
	}
}

var simSpanMetrics = map[string]string{
	"qcc.parse":       "qcc.parse_ms_p50",
	"qcc.route":       "qcc.route_ms_p50",
	"sched.build":     "sched.build_ms_p50",
	"sim.run":         "sim.run_ms_p50",
	"program.expand":  "core.expand_ms_p50",
	"program.reserve": "core.reserve_ms_p50",
	"program.solve":   "core.solve_ms_p50",
}

func (r *simRunner) layers(m metrics, res *result) {
	res.spanStats(m, simSpanMetrics)
	m["qcc.doc_kb"] = float64(len(r.doc)) / 1024
	m["core.expanded_streams"] = float64(r.expanded)
	m["core.slots"] = float64(r.slots)
	m["gcl.entries"] = float64(r.entries)
	// Exact counts are reported for arrival seed 0, which the first traced
	// op of every run simulates, so they do not depend on the run length.
	if c := r.counts[0]; c != nil {
		m["sim.events"] = float64(c.events)
		m["sim.delivered"] = float64(c.delivered)
		m["sim.drops"] = float64(c.drops)
	}
	if r.simEvents > 0 {
		m["sim.ns_per_event"] = r.simNs / r.simEvents
		m["sim.allocs_per_event"] = r.simAllocs / r.simEvents
		m["sim.events_per_s"] = r.simEvents / r.simNs * 1e9
	}
}
