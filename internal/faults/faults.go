// Package faults implements the self-healing side of the CNC: impact
// analysis for link failures, incremental recovery replanning (reroute the
// affected streams over alternate paths and re-admit them without moving
// surviving slots), bounded full replans with exponential backoff when the
// incremental path cannot work, and graceful degradation — shedding
// best-effort flows first, then the loosest non-sharing TCT streams, never
// ECT — when the surviving network cannot carry everything.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"etsn/internal/core"
	"etsn/internal/gcl"
	"etsn/internal/model"
	"etsn/internal/obs"
	"etsn/internal/sim"
)

// ErrUnrecoverable means no replanning strategy produced a valid schedule,
// even after shedding every sheddable stream: an ECT stream became
// unreachable, or the surviving capacity cannot carry the critical set.
var ErrUnrecoverable = errors.New("unrecoverable fault")

// Recovery reports one replanning round: the new deployment plus exactly
// what moved and what was shed.
type Recovery struct {
	// Dead lists the directed links out of service during this recovery.
	Dead []model.LinkID
	// Result is the recovered schedule.
	Result *core.Result
	// Problem is the recovered problem: surviving streams with their
	// post-recovery routes, on the reduced network.
	Problem *core.Problem
	// GCLs are the freshly synthesized gate programs to redistribute.
	GCLs map[model.LinkID]*gcl.PortGCL
	// ChangedPorts lists the ports whose gate program differs from the
	// previous deployment (the size of the redistribution).
	ChangedPorts []model.LinkID
	// Rerouted maps each moved user-level stream to its new path.
	Rerouted map[model.StreamID][]model.LinkID
	// ShedTCT lists TCT streams shed by graceful degradation (unreachable
	// or sacrificed for feasibility), sorted.
	ShedTCT []model.StreamID
	// ShedBE lists silenced best-effort flows, sorted.
	ShedBE []model.StreamID
	// Incremental reports whether surviving slots stayed frozen in place
	// (re-admission) rather than being replanned from scratch.
	Incremental bool
	// Attempts counts scheduling attempts across the incremental and full
	// paths.
	Attempts int
}

// ShedSet returns the shed streams as the set sim.Reprogram expects.
func (r *Recovery) ShedSet() map[model.StreamID]bool {
	out := make(map[model.StreamID]bool, len(r.ShedTCT)+len(r.ShedBE))
	for _, id := range r.ShedTCT {
		out[id] = true
	}
	for _, id := range r.ShedBE {
		out[id] = true
	}
	return out
}

// Controller is the CNC's recovery planner. It tracks the deployed problem,
// schedule, and gate programs, plus which links are currently dead, and
// replans on Fail/Restore. All methods are single-goroutine; drive it from
// the simulator's event loop or a dedicated planner goroutine.
type Controller struct {
	// KPaths bounds the alternate routes tried per stream (default 3).
	KPaths int
	// MaxAttempts bounds full-replan retries per recovery (default 4).
	MaxAttempts int
	// BaseTimeout is the planning budget of the first full-replan attempt;
	// it doubles on every retry (exponential backoff; default 2s).
	BaseTimeout time.Duration
	// RetryBackoff, when its Base is set, replaces the historical
	// strict-doubling budget schedule with an explicit Backoff (allowing a
	// cap and jitter). Leave zero for BaseTimeout doubling, uncapped.
	RetryBackoff Backoff
	// ReplanBackend, when nonzero, overrides the scheduling backend for
	// full replans (fault recovery and admission fallback); zero keeps the
	// deployed problem's backend. The scheduling daemon sets it from the
	// admit request's backend field.
	ReplanBackend core.Backend
	// GCL configures gate synthesis for recovered schedules; it must match
	// the deployed plan's synthesis config, because a recovery keeps the
	// deployed program of every port whose slots did not move.
	GCL gcl.Config
	// Obs, when non-nil, counts recovery activity: replans by mode,
	// scheduling attempts, backoff waits, and shed streams.
	Obs *obs.Registry

	physical *model.Network
	pristine *core.Problem // original problem, original routes
	current  *core.Problem // deployed problem, current routes
	result   *core.Result
	gcls     map[model.LinkID]*gcl.PortGCL
	be       []sim.BETraffic
	dead     map[model.LinkID]bool
}

// NewController wraps a deployed plan. be lists the background best-effort
// flows in simulator order (BEStreamID indexing) so degradation can shed
// them; nil is fine when the scenario carries none.
func NewController(p *core.Problem, res *core.Result, gcls map[model.LinkID]*gcl.PortGCL, be []sim.BETraffic) (*Controller, error) {
	if p == nil || p.Network == nil {
		return nil, fmt.Errorf("%w: nil problem", core.ErrInvalidProblem)
	}
	if res == nil || res.Schedule == nil {
		return nil, fmt.Errorf("%w: nil deployed result", core.ErrInvalidProblem)
	}
	return &Controller{
		KPaths:      3,
		MaxAttempts: 4,
		BaseTimeout: 2 * time.Second,
		GCL:         gcl.Config{OpenECTOnShared: true},
		physical:    p.Network,
		pristine:    cloneProblem(p),
		current:     cloneProblem(p),
		result:      res,
		gcls:        gcls,
		be:          be,
		dead:        make(map[model.LinkID]bool),
	}, nil
}

// Deployed returns the controller's view of the current deployment.
func (c *Controller) Deployed() (*core.Problem, *core.Result, map[model.LinkID]*gcl.PortGCL) {
	return c.current, c.result, c.gcls
}

// DeadLinks returns the directed links currently out of service, sorted.
func (c *Controller) DeadLinks() []model.LinkID { return c.deadList() }

// Fail marks physical links as dead (both directions) and replans around
// them: incrementally when the surviving slots can stay frozen, otherwise a
// full replan with bounded retry, exponential backoff, and graceful
// degradation. On success the controller's deployed state advances to the
// recovery output.
func (c *Controller) Fail(links ...model.LinkID) (*Recovery, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("%w: no links given", core.ErrInvalidProblem)
	}
	for _, l := range links {
		if _, ok := c.physical.LinkByID(l); !ok {
			return nil, fmt.Errorf("%w: unknown link %s", core.ErrInvalidProblem, l)
		}
		c.dead[l] = true
		c.dead[l.Reverse()] = true
	}
	return c.replan(true)
}

// Restore marks physical links healthy again (both directions) and replans
// from the pristine problem on the enlarged network, moving streams back to
// their preferred routes and re-admitting anything degradation shed. With
// every link restored, the deterministic scheduler reproduces the original
// deployment exactly.
func (c *Controller) Restore(links ...model.LinkID) (*Recovery, error) {
	for _, l := range links {
		delete(c.dead, l)
		delete(c.dead, l.Reverse())
	}
	return c.replan(false)
}

// replan recomputes the deployment for the current dead set. The reduced
// network is the largest surviving component: when failures partition the
// ring, the CNC keeps planning for the majority partition and everything
// stranded outside it is shed (or unrecoverable, for ECT).
func (c *Controller) replan(tryIncremental bool) (*Recovery, error) {
	reduced := c.physical.WithoutLinks(c.deadList()...).LargestComponent()
	rec := &Recovery{
		Dead:     c.deadList(),
		Rerouted: make(map[model.StreamID][]model.LinkID),
	}
	// Best-effort flows that lost a hop can never deliver: silence them
	// unconditionally (AVB/BE is always the first thing shed).
	shedBE := make(map[model.StreamID]bool)
	for i, be := range c.be {
		if !pathAlive(reduced, be.Path) {
			shedBE[sim.BEStreamID(i)] = true
		}
	}

	before := c.current
	var (
		prob *core.Problem
		res  *core.Result
		err  error
	)
	if tryIncremental {
		prob, res, err = c.incremental(reduced, rec)
	} else {
		err = errFullReplan
	}
	if err != nil {
		rec.Incremental = false
		prob, res, err = c.full(cloneProblem(c.pristine), reduced, rec, shedBE, nil)
		if err != nil {
			c.Obs.Counter("etsn_faults_unrecoverable_total").Inc()
			c.Obs.Counter("etsn_faults_attempts_total").Add(int64(rec.Attempts))
			return nil, err
		}
		c.Obs.Counter(`etsn_faults_replans_total{mode="full"}`).Inc()
	} else {
		rec.Incremental = true
		c.Obs.Counter(`etsn_faults_replans_total{mode="incremental"}`).Inc()
	}

	gcls, err := gcl.Resynthesize(c.result.Schedule, c.gcls, res.Schedule, c.GCL)
	if err != nil {
		return nil, fmt.Errorf("recovery GCL synthesis: %w", err)
	}
	rec.Result = res
	rec.Problem = prob
	rec.GCLs = gcls
	rec.ChangedPorts = gcl.ChangedPorts(c.gcls, gcls)
	rec.ShedBE = sortedIDs(shedBE)
	fillRerouted(rec, before, prob)

	c.Obs.Counter("etsn_faults_recoveries_total").Inc()
	c.Obs.Counter("etsn_faults_attempts_total").Add(int64(rec.Attempts))
	c.Obs.Counter("etsn_faults_shed_streams_total").Add(int64(len(rec.ShedTCT) + len(rec.ShedBE)))
	c.current = prob
	c.result = res
	c.gcls = gcls
	return rec, nil
}

// errFullReplan routes replan straight to the full path.
var errFullReplan = errors.New("full replan requested")

// incremental tries to recover without moving any surviving slot: prune the
// affected streams from the deployed schedule, reroute them over alternate
// paths on the reduced network, and re-admit them via core.Admit. It fails
// (and the caller falls back to a full replan) when a sharing TCT stream is
// hit, a stream has no surviving route, or admission keeps failing across
// the alternate-route budget.
func (c *Controller) incremental(reduced *model.Network, rec *Recovery) (*core.Problem, *core.Result, error) {
	cur := cloneProblem(c.current)
	cur.Network = reduced
	affected := make(map[model.StreamID]bool)
	var affTCT []*model.Stream
	var affECT []*model.ECT
	for _, s := range cur.TCT {
		if pathAlive(reduced, s.Path) {
			continue
		}
		if s.Share {
			// Removing a sharing stream changes drain sizing on its links:
			// the reservation structure moves, so slots cannot stay frozen.
			return nil, nil, fmt.Errorf("%w: sharing TCT %q crosses a dead link", core.ErrNeedsReplan, s.ID)
		}
		affected[s.ID] = true
		affTCT = append(affTCT, s)
	}
	for _, e := range cur.ECT {
		if !pathAlive(reduced, e.Path) {
			affected[e.ID] = true
			affECT = append(affECT, e)
		}
	}
	if len(affected) == 0 {
		// Nothing scheduled crosses the dead links; keep the deployment.
		rec.Attempts++
		return cloneProblem(c.current), c.result, nil
	}

	// Alternate-route candidates per affected stream, on the reduced
	// network (index 0 is its new shortest path).
	routes := make(map[model.StreamID][][]model.LinkID, len(affected))
	endpoints := func(id model.StreamID, src, dst model.NodeID) error {
		alts, err := reduced.AlternatePaths(src, dst, c.KPaths)
		if err != nil {
			return fmt.Errorf("%w: %q has no surviving route: %v", core.ErrInfeasible, id, err)
		}
		routes[id] = alts
		return nil
	}
	for _, s := range affTCT {
		if err := endpoints(s.ID, s.Source(), s.Destination()); err != nil {
			return nil, nil, err
		}
	}
	for _, e := range affECT {
		if err := endpoints(e.ID, e.Source(), e.Destination()); err != nil {
			return nil, nil, err
		}
	}

	// Surviving problem: deployed streams minus the affected ones.
	surviving := &core.Problem{Network: reduced, Opts: cur.Opts}
	for _, s := range cur.TCT {
		if !affected[s.ID] {
			surviving.TCT = append(surviving.TCT, s)
		}
	}
	for _, e := range cur.ECT {
		if !affected[e.ID] {
			surviving.ECT = append(surviving.ECT, e)
		}
	}
	// Pruned deployment: drop the affected streams and everything derived
	// from them (possibilities, drains) but keep every surviving slot.
	pruned := c.result.Schedule.Clone()
	for id, st := range c.result.Schedule.Streams {
		if affected[id] || (st.Parent != "" && affected[st.Parent]) {
			pruned.RemoveStream(id)
		}
	}
	prev := &core.Result{Schedule: pruned, SharedReserves: c.result.SharedReserves}

	tried := make(map[model.StreamID]int)
	budget := 1 + c.KPaths*len(affected)
	if budget > 16 {
		budget = 16
	}
	var lastErr error
	for attempt := 0; attempt < budget; attempt++ {
		rec.Attempts++
		newTCT := make([]*model.Stream, len(affTCT))
		for i, s := range affTCT {
			cp := *s
			cp.Path = append([]model.LinkID(nil), routes[s.ID][tried[s.ID]]...)
			newTCT[i] = &cp
		}
		newECT := make([]*model.ECT, len(affECT))
		for i, e := range affECT {
			cp := *e
			cp.Path = append([]model.LinkID(nil), routes[e.ID][tried[e.ID]]...)
			newECT[i] = &cp
		}
		res, err := core.Admit(surviving, prev, newTCT, newECT)
		if err == nil {
			if vs := core.Verify(reduced, res); len(vs) > 0 {
				return nil, nil, fmt.Errorf("%w: incremental recovery failed verification: %v",
					core.ErrInfeasible, vs[0])
			}
			prob := &core.Problem{Network: reduced, Opts: cur.Opts}
			prob.TCT = append(surviving.TCT[:len(surviving.TCT):len(surviving.TCT)], newTCT...)
			prob.ECT = append(surviving.ECT[:len(surviving.ECT):len(surviving.ECT)], newECT...)
			return prob, res, nil
		}
		lastErr = err
		var pf *core.PlaceFailure
		if !errors.As(err, &pf) {
			// Structural (ErrNeedsReplan) or validation errors cannot be
			// fixed by rerouting.
			return nil, nil, err
		}
		id := core.RerouteTarget(pf.Stream)
		alts, ok := routes[id]
		if !ok || tried[id]+1 >= len(alts) {
			return nil, nil, fmt.Errorf("stream %q exhausted alternate routes during admission: %w", id, err)
		}
		tried[id]++
	}
	return nil, nil, fmt.Errorf("incremental admission budget exhausted: %w", lastErr)
}

// full replans base (normally the pristine problem, or pristine plus the
// streams being admitted) on the reduced network with bounded retries and
// exponential backoff, shedding best-effort flows and then the loosest
// non-sharing TCT streams until the rest fits. ECT streams are never shed:
// an unreachable or unschedulable ECT is unrecoverable. Streams in
// protected are exempt from degradation (admission refuses to shed the very
// streams it was asked to add). base is consumed.
func (c *Controller) full(base *core.Problem, reduced *model.Network, rec *Recovery, shedBE map[model.StreamID]bool, protected map[model.StreamID]bool) (*core.Problem, *core.Result, error) {
	base.Network = reduced
	shedTCT := make(map[model.StreamID]bool)
	// Pre-route streams whose pristine path is broken; unreachable TCT is
	// shed, unreachable ECT ends recovery.
	var kept []*model.Stream
	for _, s := range base.TCT {
		if pathAlive(reduced, s.Path) {
			kept = append(kept, s)
			continue
		}
		path, err := reduced.ShortestPath(s.Source(), s.Destination())
		if err != nil {
			shedTCT[s.ID] = true
			continue
		}
		s.Path = path
		kept = append(kept, s)
	}
	base.TCT = kept
	for _, e := range base.ECT {
		if pathAlive(reduced, e.Path) {
			continue
		}
		path, err := reduced.ShortestPath(e.Source(), e.Destination())
		if err != nil {
			return nil, nil, fmt.Errorf("%w: ECT %q unreachable: %v", ErrUnrecoverable, e.ID, err)
		}
		e.Path = path
	}

	bo := c.RetryBackoff
	if bo.Base <= 0 {
		bo = Backoff{Base: c.BaseTimeout, Factor: 2}
	}
	var lastErr error
	for attempt := 1; attempt <= c.MaxAttempts; attempt++ {
		rec.Attempts++
		p := &core.Problem{Network: reduced, ECT: base.ECT, Opts: base.Opts}
		for _, s := range base.TCT {
			if !shedTCT[s.ID] {
				p.TCT = append(p.TCT, s)
			}
		}
		p.Opts.Timeout = bo.Delay(attempt - 1)
		if c.ReplanBackend != 0 {
			p.Opts.Backend = c.ReplanBackend
		}
		res, routed, err := core.ScheduleWithRouting(p, c.KPaths)
		if err == nil {
			// A cascade plan was verified on p.Network, which is reduced.
			if !res.Verified {
				if vs := core.Verify(reduced, res); len(vs) > 0 {
					return nil, nil, fmt.Errorf("%w: full replan failed verification: %v",
						ErrUnrecoverable, vs[0])
				}
			}
			rec.ShedTCT = sortedIDs(shedTCT)
			return routed, res, nil
		}
		lastErr = err
		if !errors.Is(err, core.ErrInfeasible) && !errors.Is(err, core.ErrBudget) &&
			!errors.Is(err, core.ErrNeedsReplan) {
			return nil, nil, err
		}
		// Graceful degradation ladder: first shed every best-effort flow,
		// then one non-sharing TCT stream per retry, loosest deadline
		// (largest slack) first. Each retry doubles the planning budget.
		if !allBEShed(shedBE, len(c.be)) {
			for i := range c.be {
				shedBE[sim.BEStreamID(i)] = true
			}
		} else if victim := c.nextVictim(base.TCT, shedTCT, protected); victim != "" {
			shedTCT[victim] = true
		} else if attempt < c.MaxAttempts {
			// Nothing left to shed; remaining retries only buy solver time.
			if !errors.Is(err, core.ErrBudget) {
				break
			}
		}
		c.Obs.Counter("etsn_faults_backoff_waits_total").Inc()
	}
	return nil, nil, fmt.Errorf("%w: %d attempts, %d TCT shed: %v",
		ErrUnrecoverable, rec.Attempts, len(shedTCT), lastErr)
}

// nextVictim applies PickVictim while treating protected streams as
// already excluded from consideration (but not from the schedule).
func (c *Controller) nextVictim(tct []*model.Stream, shed, protected map[model.StreamID]bool) model.StreamID {
	if len(protected) == 0 {
		return PickVictim(c.physical, tct, shed)
	}
	skip := make(map[model.StreamID]bool, len(shed)+len(protected))
	for id := range shed {
		skip[id] = true
	}
	for id := range protected {
		skip[id] = true
	}
	return PickVictim(c.physical, tct, skip)
}

// PickVictim selects the next TCT stream graceful degradation sheds:
// non-sharing only (sharing streams fund ECT drain capacity and reshape
// reservations), largest deadline slack first, ties by ID. It is the one
// step of the BE-then-TCT-never-ECT ladder that needs topology context, so
// the scheduling service reuses it for overload degradation.
func PickVictim(n *model.Network, tct []*model.Stream, shed map[model.StreamID]bool) model.StreamID {
	var best model.StreamID
	var bestSlack time.Duration = -1
	for _, s := range tct {
		if s.Share || shed[s.ID] {
			continue
		}
		slack := s.E2E - pathFloor(n, s.Path, s.LengthBytes)
		if slack > bestSlack || (slack == bestSlack && (best == "" || s.ID < best)) {
			best = s.ID
			bestSlack = slack
		}
	}
	return best
}

// pathFloor is the no-contention store-and-forward latency of a path: the
// ordering heuristic behind "shed by slack".
func pathFloor(n *model.Network, path []model.LinkID, bytes int) time.Duration {
	frames := model.FrameCount(bytes)
	per := bytes
	if frames > 1 {
		per = model.MTUBytes
	}
	var total time.Duration
	for _, lid := range path {
		if l, ok := n.LinkByID(lid); ok {
			total += time.Duration(frames)*l.TxTime(per) + l.PropDelay
		}
	}
	return total
}

// fillRerouted records every user-level stream whose route changed.
func fillRerouted(rec *Recovery, before, after *core.Problem) {
	prev := make(map[model.StreamID][]model.LinkID, len(before.TCT)+len(before.ECT))
	for _, s := range before.TCT {
		prev[s.ID] = s.Path
	}
	for _, e := range before.ECT {
		prev[e.ID] = e.Path
	}
	note := func(id model.StreamID, path []model.LinkID) {
		if old, ok := prev[id]; ok && !samePath(old, path) {
			rec.Rerouted[id] = append([]model.LinkID(nil), path...)
		}
	}
	for _, s := range after.TCT {
		note(s.ID, s.Path)
	}
	for _, e := range after.ECT {
		note(e.ID, e.Path)
	}
}

func samePath(a, b []model.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pathCrossesAny(path []model.LinkID, dead map[model.LinkID]bool) bool {
	for _, l := range path {
		if dead[l] {
			return true
		}
	}
	return false
}

// pathAlive reports whether every hop of a deployed route still exists on
// the reduced network (dead links and pruned partitions both break a path).
func pathAlive(n *model.Network, path []model.LinkID) bool {
	for _, lid := range path {
		if _, ok := n.LinkByID(lid); !ok {
			return false
		}
	}
	return true
}

func allBEShed(shed map[model.StreamID]bool, n int) bool {
	for i := 0; i < n; i++ {
		if !shed[sim.BEStreamID(i)] {
			return false
		}
	}
	return true
}

func sortedIDs(set map[model.StreamID]bool) []model.StreamID {
	out := make([]model.StreamID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c *Controller) deadList() []model.LinkID {
	out := make([]model.LinkID, 0, len(c.dead))
	for l := range c.dead {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// cloneProblem deep-copies a problem's stream lists (paths included); the
// network pointer is shared, options are copied by value.
func cloneProblem(p *core.Problem) *core.Problem {
	out := &core.Problem{Network: p.Network, Opts: p.Opts}
	out.TCT = make([]*model.Stream, len(p.TCT))
	for i, s := range p.TCT {
		cp := *s
		cp.Path = append([]model.LinkID(nil), s.Path...)
		out.TCT[i] = &cp
	}
	out.ECT = make([]*model.ECT, len(p.ECT))
	for i, e := range p.ECT {
		cp := *e
		cp.Path = append([]model.LinkID(nil), e.Path...)
		out.ECT[i] = &cp
	}
	return out
}
