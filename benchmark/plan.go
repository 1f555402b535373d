package main

// The two planning workloads, corpus-2200 and dense-40. One op is the
// offline CNC from outside: document bytes -> verified deployment, gate
// programs and export, with the export read back the way a switch would.

import (
	"bytes"
	"fmt"

	"etsn/internal/core"
	"etsn/internal/gcl"
	"etsn/internal/model"
	"etsn/internal/qcc"
)

type planRunner struct {
	doc []byte
	// firstExport is the first op's export; every later op must produce
	// the same bytes. lastExport and lastNetwork are what check reads.
	firstExport, lastExport []byte
	lastNetwork             *model.Network
	// Counts of the last op; they must repeat exactly run to run.
	requirements, expanded, slots, entries int
	allocMB                                []float64 // per traced core.Schedule call
}

func newPlanRunner(doc []byte) (runner, error) {
	r := &planRunner{doc: doc}
	err := r.op(&opCtx{}) // warm-up, and the determinism reference
	if err == nil {
		err = r.check(&opCtx{})
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return r, nil
}

func (r *planRunner) clients() int { return 1 }
func (r *planRunner) close()       {}

func (r *planRunner) op(c *opCtx) error {
	end := c.span("qcc.parse")
	cfg, err := qcc.Parse(r.doc)
	end()
	if err != nil {
		return err
	}
	cfg.Obs, cfg.Phases = c.registry(), c.phases()

	end = c.span("qcc.route")
	p, err := cfg.BuildProblem()
	end()
	if err != nil {
		return err
	}

	var res *core.Result
	end = c.span("core.schedule")
	schedule := func() { res, err = core.Schedule(p) }
	if c.traced() {
		mb, _ := allocsDuring(schedule)
		r.allocMB = append(r.allocMB, mb)
	} else {
		schedule()
	}
	end()
	if err != nil {
		return err
	}

	// The independent verifier is both a pipeline stage and the
	// benchmark's reference: no golden plan is stored.
	end = c.span("core.verify")
	violations := core.Verify(p.Network, res)
	end()
	if len(violations) != 0 {
		return fmt.Errorf("verifier: %d violation(s), first: %s", len(violations), violations[0])
	}

	end = c.span("gcl.synthesize")
	gcls, err := gcl.Synthesize(res.Schedule, gcl.Config{OpenECTOnShared: true})
	end()
	if err != nil {
		return err
	}

	var export bytes.Buffer
	end = c.span("qcc.export")
	dep := &qcc.Deployment{Network: p.Network, Problem: p, Result: res, GCLs: gcls}
	err = dep.WriteJSON(&export)
	end()
	if err != nil {
		return err
	}

	r.lastExport, r.lastNetwork = export.Bytes(), p.Network
	r.requirements = len(cfg.Streams)
	r.expanded = len(res.Expanded)
	r.slots = res.Schedule.NumSlots()
	r.entries = 0
	for _, g := range gcls {
		r.entries += len(g.Entries)
	}
	return nil
}

// check reads the export back the way a switch would and holds it to the
// first op's bytes: the pipeline is deterministic.
func (r *planRunner) check(c *opCtx) error {
	end := c.span("qcc.reimport")
	back, err := qcc.ParseDeployment(bytes.NewReader(r.lastExport))
	if err == nil {
		err = back.Validate(r.lastNetwork)
	}
	end()
	if err != nil {
		return fmt.Errorf("export round trip: %w", err)
	}
	if r.firstExport == nil {
		r.firstExport = r.lastExport
	} else if !bytes.Equal(r.lastExport, r.firstExport) {
		return fmt.Errorf("export differs from the first op's (%d vs %d bytes)", len(r.lastExport), len(r.firstExport))
	}
	return nil
}

var planSpanMetrics = map[string]string{
	"qcc.parse":       "qcc.parse_ms_p50",
	"qcc.route":       "qcc.route_ms_p50",
	"qcc.export":      "qcc.export_ms_p50",
	"qcc.reimport":    "qcc.reimport_ms_p50",
	"core.schedule":   "core.schedule_ms_p50",
	"core.verify":     "core.verify_ms_p50",
	"gcl.synthesize":  "gcl.synthesize_ms_p50",
	"program.expand":  "core.expand_ms_p50",
	"program.reserve": "core.reserve_ms_p50",
	"program.solve":   "core.solve_ms_p50",
}

func (r *planRunner) layers(m metrics, res *result) {
	res.spanStats(m, planSpanMetrics)
	m["qcc.doc_kb"] = float64(len(r.doc)) / 1024
	m["qcc.export_kb"] = float64(len(r.firstExport)) / 1024
	m["core.alloc_mb_per_schedule"] = mean(r.allocMB)
	m["core.expanded_streams"] = float64(r.expanded)
	m["core.slots"] = float64(r.slots)
	m["gcl.entries"] = float64(r.entries)
	if p50 := quantile(res.opMs(false), 0.5); p50 > 0 {
		m["plan.streams_per_s"] = float64(r.requirements) / p50 * 1e3
	}
}
