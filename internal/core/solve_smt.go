package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"etsn/internal/model"
	"etsn/internal/obs"
	"etsn/internal/smt"
)

// frameKey identifies one frame-offset variable φ.
type frameKey struct {
	stream model.StreamID
	link   model.LinkID
	index  int
}

// smtBuilder incrementally translates the instance into difference-logic
// constraints.
type smtBuilder struct {
	inst   *instance
	solver *smt.Solver
	vars   map[frameKey]smt.Var
}

func newSMTBuilder(inst *instance) *smtBuilder {
	b := &smtBuilder{
		inst:   inst,
		solver: smt.NewSolver(),
		vars:   make(map[frameKey]smt.Var),
	}
	b.solver.MaxDecisions = inst.opts.MaxDecisions
	if inst.opts.Timeout > 0 {
		b.solver.Deadline = time.Now().Add(inst.opts.Timeout)
	}
	if inst.opts.ReferenceSolver {
		b.solver.Mode = smt.ModeReference
	}
	b.solver.TheoryProp = inst.opts.TheoryProp
	return b
}

func (b *smtBuilder) varFor(k frameKey) smt.Var {
	if v, ok := b.vars[k]; ok {
		return v
	}
	// Name lazily: constraint emission allocates one variable per frame
	// slot and the Sprintf showed up in profiles; only debug paths ever
	// read the names.
	v := b.solver.NewVarLazy(func() string {
		return fmt.Sprintf("phi(%s,%s,%d)", k.stream, k.link, k.index)
	})
	b.vars[k] = v
	return v
}

// addStreamConstraints emits constraints (1)-(4) and (7) for one stream.
func (b *smtBuilder) addStreamConstraints(s *model.Stream) {
	inst := b.inst
	t := inst.periodUnits[s.ID]
	for li, lid := range s.Path {
		count := inst.frames[s.ID][lid]
		for j := 0; j < count; j++ {
			l := inst.frameLen(s, lid, j)
			v := b.varFor(frameKey{stream: s.ID, link: lid, index: j})
			// (1) fit in the period: 0 <= φ and φ + L <= T.
			b.solver.AssertRange(v, 0, t-l)
			// (3) frames of the same stream are sent in sequence.
			if j > 0 {
				prev := b.varFor(frameKey{stream: s.ID, link: lid, index: j - 1})
				b.solver.AssertGE(v, prev, inst.frameLen(s, lid, j-1))
			}
		}
		// (7) adjacent-link constraints with the prudent-reservation
		// index shift o = max(|F_up| - |F_down|, 0).
		if li > 0 {
			up := s.Path[li-1]
			for j := 0; j < count; j++ {
				upIdx := upstreamIndex(j, count, inst.frames[s.ID][up])
				vDown := b.varFor(frameKey{stream: s.ID, link: lid, index: j})
				vUp := b.varFor(frameKey{stream: s.ID, link: up, index: upIdx})
				b.solver.AssertGE(vDown, vUp, inst.frameLen(s, up, upIdx)+inst.propUnits[up])
			}
		}
	}
	// (2) a probabilistic stream's first frame on the first link starts at
	// or after its occurrence time.
	first := b.varFor(frameKey{stream: s.ID, link: s.Path[0], index: 0})
	if s.Type == model.StreamProb {
		b.solver.AddClause(smt.GEConst(first, inst.otUnits[s.ID]))
	}
	// (4) end-to-end latency. We include the last frame's transmission
	// time so the bound covers full delivery (strictly tighter than the
	// paper's (4), which compares start times only).
	lastLink := s.Path[len(s.Path)-1]
	lastIdx := inst.frames[s.ID][lastLink] - 1
	last := b.varFor(frameKey{stream: s.ID, link: lastLink, index: lastIdx})
	lLast := inst.frameLen(s, lastLink, lastIdx)
	if s.Type == model.StreamProb {
		// The budget measures from the floored occurrence time so grid
		// rounding stays on the conservative side (matching the verifier).
		b.solver.AddClause(smt.LEConst(last, inst.otFloorUnits[s.ID]+inst.e2eUnits[s.ID]-lLast))
	} else {
		b.solver.AssertLE(last, first, inst.e2eUnits[s.ID]-lLast)
	}
}

// addOverlapConstraints emits constraints (5) between two streams on every
// link they have in common, unless the pair is allowed to overlap.
func (b *smtBuilder) addOverlapConstraints(a, c *model.Stream) {
	if canOverlap(a, c) {
		return
	}
	inst := b.inst
	ta, tc := inst.periodUnits[a.ID], inst.periodUnits[c.ID]
	hyper := model.LCM(ta, tc)
	for _, lid := range a.Path {
		if !pathContains(c.Path, lid) {
			continue
		}
		na := inst.frames[a.ID][lid]
		nc := inst.frames[c.ID][lid]
		for i := 0; i < na; i++ {
			va := b.varFor(frameKey{stream: a.ID, link: lid, index: i})
			aRes := inst.isReserveIndex(a, i)
			la := inst.frameLen(a, lid, i)
			for j := 0; j < nc; j++ {
				if slotsCanOverlap(a, c, aRes, inst.isReserveIndex(c, j), inst.opts.SharedReserves) {
					continue
				}
				lc := inst.frameLen(c, lid, j)
				vc := b.varFor(frameKey{stream: c.ID, link: lid, index: j})
				for x := int64(0); x < hyper/ta; x++ {
					for y := int64(0); y < hyper/tc; y++ {
						// Either a's instance x starts after c's instance y
						// ends, or vice versa.
						b.solver.AddClause(
							smt.LE(vc, va, x*ta-y*tc-lc),
							smt.LE(va, vc, y*tc-x*ta-la),
						)
					}
				}
			}
		}
	}
}

func pathContains(path []model.LinkID, id model.LinkID) bool {
	for _, l := range path {
		if l == id {
			return true
		}
	}
	return false
}

// solveSMT schedules the instance with the exact difference-logic solver.
// In incremental mode streams are added one at a time and the system is
// re-solved after each addition (Steiner-style synthesis), which localizes
// conflicts and keeps the solver's potentials warm. Cancelling ctx stops
// the search (incremental solves between and inside re-solves).
func solveSMT(ctx context.Context, inst *instance, incremental bool) (*Result, error) {
	b := newSMTBuilder(inst)
	// Publish whatever effort was spent — once, at whichever exit — so
	// even budget-exhausted searches are visible in exported metrics.
	defer publishSolverStats(inst.opts.Obs, b.solver)
	var m *smt.Model
	var err error
	if incremental {
		m, err = solveIncremental(ctx, b, inst)
	} else {
		spEmit := inst.opts.Phases.Begin("emit-constraints")
		for i, s := range inst.streams {
			b.addStreamConstraints(s)
			for j := 0; j < i; j++ {
				b.addOverlapConstraints(inst.streams[j], s)
			}
		}
		spEmit.End()
		m, err = b.solver.SolveContext(ctx)
		if err != nil {
			err = wrapSolveErr(err, "")
		}
	}
	if err != nil {
		return nil, err
	}
	if inst.opts.MinimizeECT {
		if opt, merr := b.minimizeECT(); merr == nil {
			m = opt
		} else if !errors.Is(merr, errNoObjective) {
			return nil, wrapSolveErr(merr, "")
		}
	}
	res := extractSchedule(inst, func(_ int, k frameKey) int64 {
		return m.Value(b.vars[k])
	})
	st := b.solver.TotalStats()
	res.SolverStats = SolverStats{
		Decisions:        st.Decisions,
		Propagations:     st.Propagations,
		Conflicts:        st.Conflicts,
		TheoryChecks:     st.TheoryChecks,
		Restarts:         st.Restarts,
		Learned:          st.Learned,
		TheoryProps:      st.TheoryProps,
		MaxDecisionLevel: st.MaxDecisionLevel,
		Solves:           b.solver.Solves(),
		Clauses:          st.Clauses,
		Vars:             st.Vars,
	}
	if incremental {
		res.BackendUsed = BackendSMTIncremental
	} else {
		res.BackendUsed = BackendSMT
	}
	return res, nil
}

// solveIncremental adds streams one at a time, re-solving after each.
// Each re-solve runs under ctx, so an expired cascade stage stops
// mid-sequence.
func solveIncremental(ctx context.Context, b *smtBuilder, inst *instance) (*smt.Model, error) {
	var m *smt.Model
	for i, s := range inst.streams {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBudget, err)
		}
		b.addStreamConstraints(s)
		for j := 0; j < i; j++ {
			b.addOverlapConstraints(inst.streams[j], s)
		}
		var err error
		m, err = b.solver.SolveContext(ctx)
		if err != nil {
			return nil, wrapSolveErr(err, s.ID)
		}
	}
	if m == nil { // no streams
		var err error
		m, err = b.solver.SolveContext(ctx)
		if err != nil {
			return nil, wrapSolveErr(err, "")
		}
	}
	return m, nil
}

// publishSolverStats exports the solver's cumulative effort counters.
// It reports deltas since the solver's last publication is not tracked —
// each smtBuilder owns a fresh solver, so each call site publishes the
// whole of that solver's effort exactly once.
func publishSolverStats(reg *obs.Registry, s *smt.Solver) {
	if reg == nil {
		return
	}
	st := s.TotalStats()
	reg.Counter("etsn_smt_decisions_total").Add(st.Decisions)
	reg.Counter("etsn_smt_propagations_total").Add(st.Propagations)
	reg.Counter("etsn_smt_conflicts_total").Add(st.Conflicts)
	reg.Counter("etsn_smt_theory_checks_total").Add(st.TheoryChecks)
	reg.Counter("etsn_smt_restarts_total").Add(st.Restarts)
	reg.Counter("etsn_smt_learned_clauses").Add(st.Learned)
	reg.Counter("etsn_smt_theory_props_total").Add(st.TheoryProps)
	reg.Counter("etsn_smt_solves_total").Add(s.Solves())
	reg.Gauge("etsn_smt_clauses").Set(int64(st.Clauses))
	reg.Gauge("etsn_smt_vars").Set(int64(st.Vars))
}

// errNoObjective reports that no probabilistic stream exists to optimize.
var errNoObjective = errors.New("no ECT objective")

// minimizeECT adds an objective variable D bounding every possibility's
// latency (delivery minus occurrence time) and binary-searches its minimum.
func (b *smtBuilder) minimizeECT() (*smt.Model, error) {
	inst := b.inst
	d := b.solver.NewVar("objective:worst-ect-latency")
	var hi int64
	seen := false
	for _, s := range inst.streams {
		if s.Type != model.StreamProb {
			continue
		}
		seen = true
		lastLink := s.Path[len(s.Path)-1]
		lastIdx := inst.frames[s.ID][lastLink] - 1
		last := b.varFor(frameKey{stream: s.ID, link: lastLink, index: lastIdx})
		lLast := inst.frameLen(s, lastLink, lastIdx)
		// D >= (φ_last + L) - ot.
		b.solver.AssertGE(d, last, lLast-inst.otFloorUnits[s.ID])
		if e := inst.e2eUnits[s.ID]; e > hi {
			hi = e
		}
	}
	if !seen {
		return nil, errNoObjective
	}
	return b.solver.Minimize(d, 0, hi)
}

func wrapSolveErr(err error, at model.StreamID) error {
	switch {
	case errors.Is(err, smt.ErrUnsat):
		if at != "" {
			return fmt.Errorf("%w: adding stream %q made the system unsatisfiable", ErrInfeasible, at)
		}
		return fmt.Errorf("%w: %v", ErrInfeasible, err)
	case errors.Is(err, smt.ErrBudget), errors.Is(err, smt.ErrCanceled):
		return fmt.Errorf("%w: %v", ErrBudget, err)
	default:
		return err
	}
}

// extractSchedule materializes a Schedule from a frame-offset assignment;
// offset receives each frame's slot-table index and its key, for backends
// that hold their assignment under either.
func extractSchedule(inst *instance, offset func(f int, k frameKey) int64) *Result {
	sched := model.NewSchedule()
	sched.Hyperperiod = model.UnitsToDuration(inst.hyper, inst.unit)
	for si, s := range inst.streams {
		sched.AddStream(s)
		t := inst.periodUnits[s.ID]
		for _, h := range inst.hops[si] {
			for j := 0; j < h.count; j++ {
				v := offset(h.base+j, frameKey{stream: s.ID, link: h.lid, index: j})
				sched.AddSlot(model.FrameSlot{
					Stream:   s.ID,
					Link:     h.lid,
					Index:    j,
					Offset:   v % t,
					Epoch:    v / t,
					Length:   h.frameLen(s, j),
					Period:   t,
					Priority: s.Priority,
					Shared:   s.Type == model.StreamDet && s.Share,
					Reserve:  inst.isReserveIndex(s, j),
					Prob:     s.Type == model.StreamProb,
					Parent:   s.Parent,
				})
			}
		}
	}
	sched.Sort()
	return &Result{
		Schedule:       sched,
		Expanded:       inst.streams,
		FrameCounts:    inst.frames,
		SharedReserves: inst.opts.SharedReserves,
	}
}
