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

// smtBuilder incrementally translates the instance into difference-logic
// constraints. vars holds one frame-offset variable φ per frame, indexed
// like the slot table (hop.base + frame index) and allocated in that order
// as streams are added.
type smtBuilder struct {
	inst   *instance
	solver *smt.Solver
	vars   []smt.Var
}

func newSMTBuilder(inst *instance) *smtBuilder {
	b := &smtBuilder{
		inst:   inst,
		solver: smt.NewSolver(),
		vars:   make([]smt.Var, inst.nFrames),
	}
	b.solver.MaxDecisions = inst.opts.MaxDecisions
	if inst.opts.Timeout > 0 {
		b.solver.Deadline = time.Now().Add(inst.opts.Timeout)
	}
	return b
}

// newVar allocates the variable of frame j of s on hop h.
func (b *smtBuilder) newVar(s *model.Stream, h *hop, j int) smt.Var {
	// Name lazily: constraint emission allocates one variable per frame
	// slot and the Sprintf showed up in profiles; only debug paths ever
	// read the names.
	v := b.solver.NewVarLazy(func() string {
		return fmt.Sprintf("phi(%s,%s,%d)", s.ID, h.lid, j)
	})
	b.vars[h.base+j] = v
	return v
}

// addStreamConstraints emits constraints (1)-(4) and (7) for stream si.
func (b *smtBuilder) addStreamConstraints(si int) {
	inst := b.inst
	s, hops := inst.streams[si], inst.hops[si]
	t := inst.periodUnits[si]
	for li := range hops {
		h := &hops[li]
		for j := 0; j < h.count; j++ {
			l := h.frameLen(s, j)
			v := b.newVar(s, h, j)
			// (1) fit in the period: 0 <= φ and φ + L <= T.
			b.solver.AssertRange(v, 0, t-l)
			// (3) frames of the same stream are sent in sequence.
			if j > 0 {
				b.solver.AssertGE(v, b.vars[h.base+j-1], h.frameLen(s, j-1))
			}
		}
		// (7) adjacent-link constraints with the prudent-reservation
		// index shift o = max(|F_up| - |F_down|, 0).
		if li > 0 {
			up := &hops[li-1]
			for j := 0; j < h.count; j++ {
				upIdx := upstreamIndex(j, h.count, up.count)
				b.solver.AssertGE(b.vars[h.base+j], b.vars[up.base+upIdx], up.frameLen(s, upIdx)+up.prop)
			}
		}
	}
	// (2) a probabilistic stream's first frame on the first link starts at
	// or after its occurrence time.
	first := b.vars[hops[0].base]
	if s.Type == model.StreamProb {
		b.solver.AddClause(smt.GEConst(first, inst.otUnits[si]))
	}
	// (4) end-to-end latency. We include the last frame's transmission
	// time so the bound covers full delivery (strictly tighter than the
	// paper's (4), which compares start times only).
	last, lLast := b.lastFrame(si)
	if s.Type == model.StreamProb {
		// The budget measures from the floored occurrence time so grid
		// rounding stays on the conservative side (matching the verifier).
		b.solver.AddClause(smt.LEConst(last, inst.otFloorUnits[si]+inst.e2eUnits[si]-lLast))
	} else {
		b.solver.AssertLE(last, first, inst.e2eUnits[si]-lLast)
	}
}

// lastFrame returns the variable and length of stream si's final frame on
// its final link.
func (b *smtBuilder) lastFrame(si int) (smt.Var, int64) {
	hops := b.inst.hops[si]
	h := &hops[len(hops)-1]
	return b.vars[h.base+h.count-1], h.frameLen(b.inst.streams[si], h.count-1)
}

// addOverlapConstraints emits constraints (5) between streams ai and ci on
// every link they have in common, unless the pair is allowed to overlap.
func (b *smtBuilder) addOverlapConstraints(ai, ci int) {
	inst := b.inst
	a, c := inst.streams[ai], inst.streams[ci]
	if canOverlap(a, c) {
		return
	}
	ta, tc := inst.periodUnits[ai], inst.periodUnits[ci]
	hyper := model.LCM(ta, tc)
	for hi := range inst.hops[ai] {
		ha := &inst.hops[ai][hi]
		hc := inst.hopOn(ci, ha.lid)
		if hc == nil {
			continue
		}
		for i := 0; i < ha.count; i++ {
			va := b.vars[ha.base+i]
			aRes := inst.isReserveIndex(a, i)
			la := ha.frameLen(a, i)
			for j := 0; j < hc.count; j++ {
				if slotsCanOverlap(a, c, aRes, inst.isReserveIndex(c, j), inst.opts.SharedReserves) {
					continue
				}
				lc := hc.frameLen(c, j)
				vc := b.vars[hc.base+j]
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
		for i := range inst.streams {
			b.addStreamConstraints(i)
			for j := 0; j < i; j++ {
				b.addOverlapConstraints(j, i)
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
	res := extractSchedule(inst, func(f int) int64 { return m.Value(b.vars[f]) })
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
		b.addStreamConstraints(i)
		for j := 0; j < i; j++ {
			b.addOverlapConstraints(j, i)
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
	for si, s := range inst.streams {
		if s.Type != model.StreamProb {
			continue
		}
		seen = true
		last, lLast := b.lastFrame(si)
		// D >= (φ_last + L) - ot.
		b.solver.AssertGE(d, last, lLast-inst.otFloorUnits[si])
		if e := inst.e2eUnits[si]; e > hi {
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
// offset receives each frame's slot-table index.
func extractSchedule(inst *instance, offset func(f int) int64) *Result {
	sched := model.NewSchedule()
	sched.Hyperperiod = model.UnitsToDuration(inst.hyper, inst.unit)
	for si, s := range inst.streams {
		sched.AddStream(s)
		t := inst.periodUnits[si]
		for _, h := range inst.hops[si] {
			for j := 0; j < h.count; j++ {
				v := offset(h.base + j)
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
