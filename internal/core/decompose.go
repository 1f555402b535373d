package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"etsn/internal/model"
	"etsn/internal/obs"
)

// Conflict-graph decomposition (Options.Decompose): two streams conflict iff
// their routed paths share a directed link. Every inter-stream coupling the
// scheduler knows is link-local — frame-overlap constraints (5) bind slots on
// one link, prudent reservation (Alg. 1) adds slots only on links of the
// sharing TCT stream's own path that an ECT crosses, and the SharedReserves
// drain streams live on single links of their ECT's path — so the connected
// components of the link-sharing relation are fully independent subproblems.
// Each component is solved on its own (concurrently, through whatever
// backend the options select), the per-component plans are merged, and the
// merged plan is re-checked by the independent verifier before it is
// accepted. Solving k balanced components in place of one monolithic
// instance cuts a superlinear term — the SMT emission's pairwise overlap
// constraints — by a factor of k even on a single CPU. The placers and the
// chain heuristics' conflict seeding are link-local and linear already, so
// for them decomposition only adds per-component setup and the merge.

// component is one connected component of the stream conflict graph, in
// deterministic order (components sorted by their smallest link index in
// first-seen order; streams within a component keep their input order).
type component struct {
	tct []*model.Stream
	ect []*model.ECT
}

func (c *component) streamCount() int { return len(c.tct) + len(c.ect) }

// dsu is a deterministic union-find over dense link indices.
type dsu struct{ parent []int }

func (d *dsu) find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = d.parent[x]
	}
	return x
}

// union merges the sets of a and b, keeping the smaller index as root so
// component representatives are stable regardless of union order.
func (d *dsu) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
}

// conflictComponents partitions the problem's streams into the connected
// components of the conflict graph. Links are indexed in first-encounter
// order (TCT in slice order then ECT, path order within a stream), so the
// result is deterministic and independent of map iteration. Streams with no
// path are left to the monolithic path's validation (nil return).
func conflictComponents(p *Problem) []component {
	linkIdx := make(map[model.LinkID]int)
	index := func(lid model.LinkID) int {
		if i, ok := linkIdx[lid]; ok {
			return i
		}
		i := len(linkIdx)
		linkIdx[lid] = i
		return i
	}
	// First pass: index every path link so the union-find can be sized.
	for _, s := range p.TCT {
		if len(s.Path) == 0 {
			return nil
		}
		for _, lid := range s.Path {
			index(lid)
		}
	}
	for _, e := range p.ECT {
		if len(e.Path) == 0 {
			return nil
		}
		for _, lid := range e.Path {
			index(lid)
		}
	}
	d := &dsu{parent: make([]int, len(linkIdx))}
	for i := range d.parent {
		d.parent[i] = i
	}
	unionPath := func(path []model.LinkID) {
		first := linkIdx[path[0]]
		for _, lid := range path[1:] {
			d.union(first, linkIdx[lid])
		}
	}
	for _, s := range p.TCT {
		unionPath(s.Path)
	}
	for _, e := range p.ECT {
		unionPath(e.Path)
	}
	// Components keyed by root link index; ordering by that root's first
	// appearance is the deterministic component order everything downstream
	// relies on.
	byRoot := make(map[int]int) // root -> component slot
	var comps []component
	slot := func(root int) int {
		if i, ok := byRoot[root]; ok {
			return i
		}
		byRoot[root] = len(comps)
		comps = append(comps, component{})
		return len(comps) - 1
	}
	for _, s := range p.TCT {
		i := slot(d.find(linkIdx[s.Path[0]]))
		comps[i].tct = append(comps[i].tct, s)
	}
	for _, e := range p.ECT {
		i := slot(d.find(linkIdx[e.Path[0]]))
		comps[i].ect = append(comps[i].ect, e)
	}
	return comps
}

// ConflictComponentCount reports how many connected components the
// problem's stream conflict graph has. Options.Decompose engages only when
// this exceeds one; the scale benchmark records it per grid point. Zero
// means the graph could not be built (no streams, or a stream without a
// routed path).
func ConflictComponentCount(p *Problem) int {
	return len(conflictComponents(p))
}

// compCell holds one component's solve outcome plus its sharded
// observability, merged back in component order after the join.
type compCell struct {
	res  *Result
	err  error
	wall time.Duration
	reg  *obs.Registry
	tr   *obs.Tracer
}

// scheduleDecomposed solves the problem component by component. It reports
// handled=false when the conflict graph has at most one component, in which
// case ScheduleContext falls through to the monolithic path — the same code
// a single component would run, so single-component output is byte-identical
// with and without Decompose.
func scheduleDecomposed(ctx context.Context, p *Problem, opts Options) (*Result, bool, error) {
	comps := conflictComponents(p)
	if len(comps) <= 1 {
		return nil, false, nil
	}
	reg := opts.Obs
	sp := opts.Phases.Begin("decompose", "components", strconv.Itoa(len(comps)))
	defer sp.End()

	cells := make([]compCell, len(comps))
	for i := range cells {
		if reg != nil {
			cells[i].reg = obs.NewRegistry()
		}
		if opts.Phases != nil {
			cells[i].tr = obs.NewTracer()
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(comps) {
		workers = len(comps)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range comps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Each component gets its own options view: no recursive
			// decomposition, no re-wrapped timeout (ctx already carries the
			// deadline), and the cell's child observability.
			copts := opts
			copts.Decompose = false
			copts.Timeout = 0
			copts.Obs = cells[i].reg
			copts.Phases = cells[i].tr
			sub := &Problem{Network: p.Network, TCT: comps[i].tct, ECT: comps[i].ect, Opts: copts}
			start := time.Now()
			cells[i].res, cells[i].err = solveComponent(ctx, sub, copts)
			cells[i].wall = time.Since(start)
		}(i)
	}
	// Every component is joined before merging — also on failure, so the
	// error chosen below does not depend on goroutine timing.
	wg.Wait()

	for i := range comps {
		reg.Merge(cells[i].reg)
		opts.Phases.Merge(cells[i].tr, "component", strconv.Itoa(i))
		reg.Histogram("etsn_core_component_streams").Observe(int64(comps[i].streamCount()))
		reg.Histogram("etsn_core_component_solve_latency_ns").ObserveDuration(cells[i].wall)
	}
	reg.Counter("etsn_core_components").Add(int64(len(comps)))

	// Deterministic failure selection: an infeasibility verdict (exact proof
	// or a placer's PlaceFailure, both chained to ErrInfeasible) beats
	// budget-flavored give-ups, and the lowest component index wins within
	// each class. The %w chain preserves errors.As(*PlaceFailure), so
	// ScheduleWithRouting can still pick the stuck stream to reroute.
	for i := range cells {
		if cells[i].err != nil && errors.Is(cells[i].err, ErrInfeasible) {
			return nil, true, decomposeErr(i, len(comps), &comps[i], cells[i].err)
		}
	}
	for i := range cells {
		if cells[i].err != nil {
			return nil, true, decomposeErr(i, len(comps), &comps[i], cells[i].err)
		}
	}

	merged := mergeResults(cells, opts)
	if vs := Verify(p.Network, merged); len(vs) > 0 {
		reg.Counter("etsn_core_decompose_verify_rejects_total").Inc()
		return nil, true, fmt.Errorf("%w: decompose: merged plan rejected by verifier (%d violations, first: %s)",
			ErrBudget, len(vs), vs[0])
	}
	return merged, true, nil
}

func decomposeErr(i, n int, c *component, err error) error {
	return fmt.Errorf("decompose: component %d/%d (%d streams): %w", i+1, n, c.streamCount(), err)
}

// solveComponent is the monolithic solve body (buildInstance + backend
// dispatch) without the timeout wrapping and top-level counters
// ScheduleContext adds, so a component solve is bit-for-bit the solve the
// same streams would get as a standalone problem.
func solveComponent(ctx context.Context, p *Problem, opts Options) (*Result, error) {
	inst, err := buildInstance(p, opts)
	if err != nil {
		return nil, err
	}
	sp := opts.Phases.Begin("solve", "backend", opts.Backend.String())
	res, err := dispatchBackend(ctx, inst, opts)
	sp.End()
	return res, err
}

// mergeResults folds the per-component results into one, in component
// order: slot tables and stream tables union (components share no links and
// no stream IDs), the hyperperiod is the LCM of the component hyperperiods,
// and solver effort counters sum.
func mergeResults(cells []compCell, opts Options) *Result {
	sched := model.NewSchedule()
	hyper := int64(1)
	merged := &Result{
		Schedule:    sched,
		FrameCounts: make(map[model.StreamID]map[model.LinkID]int),
	}
	backendsAgree := true
	for i := range cells {
		r := cells[i].res
		hyper = model.LCM(hyper, int64(r.Schedule.Hyperperiod))
		for _, st := range r.Expanded {
			sched.AddStream(st)
		}
		for _, lid := range r.Schedule.Links() {
			for _, fs := range r.Schedule.SlotsOn(lid) {
				sched.AddSlot(fs)
			}
		}
		merged.Expanded = append(merged.Expanded, r.Expanded...)
		for id, m := range r.FrameCounts {
			merged.FrameCounts[id] = m
		}
		merged.SharedReserves = r.SharedReserves
		if i == 0 {
			merged.BackendUsed = r.BackendUsed
		} else if r.BackendUsed != merged.BackendUsed {
			backendsAgree = false
		}
		addSolverStats(&merged.SolverStats, r.SolverStats)
	}
	if !backendsAgree {
		// Mixed per-component winners (a cascade can pick different backends
		// per component): report the mode that was asked for.
		merged.BackendUsed = opts.Backend
	}
	sched.Hyperperiod = time.Duration(hyper)
	sched.Sort()
	return merged
}

func addSolverStats(dst *SolverStats, s SolverStats) {
	dst.Decisions += s.Decisions
	dst.Propagations += s.Propagations
	dst.Conflicts += s.Conflicts
	dst.TheoryChecks += s.TheoryChecks
	dst.Restarts += s.Restarts
	dst.Learned += s.Learned
	dst.TheoryProps += s.TheoryProps
	dst.Solves += s.Solves
	dst.Clauses += s.Clauses
	dst.Vars += s.Vars
	if s.MaxDecisionLevel > dst.MaxDecisionLevel {
		dst.MaxDecisionLevel = s.MaxDecisionLevel
	}
}
