package faults

import (
	"errors"
	"fmt"

	"etsn/internal/core"
	"etsn/internal/gcl"
	"etsn/internal/model"
)

// ErrRejected means a stream admission could not be satisfied without
// shedding the very streams being admitted (or at all); the deployed plan
// is unchanged.
var ErrRejected = errors.New("stream admission rejected")

// Admit adds new streams to the live deployment. This is the self-healing
// machinery promoted to a primary API: first it tries incremental
// admission — place the new streams into residual space without moving any
// deployed slot (core.Admit), retrying over alternate routes when a
// placement fails — and only when that cannot work does it fall back to a
// bounded full replan with the BE-then-TCT-never-ECT degradation ladder.
// The requested streams themselves are never shed: if the network cannot
// carry them, Admit returns ErrRejected (wrapped) and the deployed plan is
// untouched.
//
// New streams must carry a seed path (endpoints are derived from it; route
// them with model.Network.ShortestPath or qcc.BuildStreams); Admit is free
// to reroute them over the surviving network, dead links excluded. On
// success the controller's deployed state advances and later Fail/Restore
// recoveries plan for the enlarged stream set.
func (c *Controller) Admit(newTCT []*model.Stream, newECT []*model.ECT) (*Recovery, error) {
	if len(newTCT) == 0 && len(newECT) == 0 {
		return nil, fmt.Errorf("%w: no streams to admit", core.ErrInvalidProblem)
	}
	newTCT = cloneStreams(newTCT)
	newECT = cloneECTs(newECT)

	existing := make(map[model.StreamID]bool, len(c.current.TCT)+len(c.current.ECT))
	for _, s := range c.current.TCT {
		existing[s.ID] = true
	}
	for _, e := range c.current.ECT {
		existing[e.ID] = true
	}
	fresh := make(map[model.StreamID]bool, len(newTCT)+len(newECT))
	check := func(id model.StreamID, pathLen int) error {
		if pathLen == 0 {
			return fmt.Errorf("%w: stream %q has no path (route it before admission)",
				core.ErrInvalidProblem, id)
		}
		if existing[id] {
			return fmt.Errorf("%w: stream %q is already deployed", core.ErrInvalidProblem, id)
		}
		if fresh[id] {
			return fmt.Errorf("%w: duplicate stream %q in admission batch", core.ErrInvalidProblem, id)
		}
		fresh[id] = true
		return nil
	}
	for _, s := range newTCT {
		if err := check(s.ID, len(s.Path)); err != nil {
			return nil, err
		}
	}
	for _, e := range newECT {
		if err := check(e.ID, len(e.Path)); err != nil {
			return nil, err
		}
	}

	reduced := c.physical.WithoutLinks(c.deadList()...).LargestComponent()
	rec := &Recovery{
		Dead:     c.deadList(),
		Rerouted: make(map[model.StreamID][]model.LinkID),
	}

	// Route candidates per new stream on the surviving network: index 0 is
	// the shortest path, later indexes the alternates incremental retries
	// walk. A requested stream with no surviving route is a rejection, not
	// an unrecoverable fault — nothing was deployed yet.
	routes := make(map[model.StreamID][][]model.LinkID, len(fresh))
	route := func(id model.StreamID, src, dst model.NodeID) error {
		alts, err := reduced.AlternatePaths(src, dst, c.KPaths)
		if err != nil {
			return fmt.Errorf("%w: stream %q has no route: %v", ErrRejected, id, err)
		}
		routes[id] = alts
		return nil
	}
	for _, s := range newTCT {
		if err := route(s.ID, s.Source(), s.Destination()); err != nil {
			return nil, err
		}
	}
	for _, e := range newECT {
		if err := route(e.ID, e.Source(), e.Destination()); err != nil {
			return nil, err
		}
	}

	before := c.current
	prob, res, err := c.admitIncremental(reduced, rec, newTCT, newECT, routes)
	if err == nil {
		rec.Incremental = true
		c.Obs.Counter(`etsn_faults_admissions_total{mode="incremental"}`).Inc()
	} else {
		rec.Incremental = false
		prob, res, err = c.admitFull(reduced, rec, newTCT, newECT)
		if err != nil {
			c.Obs.Counter("etsn_faults_attempts_total").Add(int64(rec.Attempts))
			return nil, err
		}
		c.Obs.Counter(`etsn_faults_admissions_total{mode="full"}`).Inc()
	}

	gcls, err := gcl.Resynthesize(c.result.Schedule, c.gcls, res.Schedule, c.GCL)
	if err != nil {
		return nil, fmt.Errorf("admission GCL synthesis: %w", err)
	}
	rec.Result = res
	rec.Problem = prob
	rec.GCLs = gcls
	rec.ChangedPorts = gcl.ChangedPorts(c.gcls, gcls)
	fillRerouted(rec, before, prob)

	// Advance the pristine problem too, so later fault recoveries replan
	// for the enlarged stream set. Pristine routes are the preferred ones
	// on the full physical network.
	c.pristine.TCT = append(c.pristine.TCT, pristineStreams(c.physical, newTCT)...)
	c.pristine.ECT = append(c.pristine.ECT, pristineECTs(c.physical, newECT)...)

	c.Obs.Counter("etsn_faults_attempts_total").Add(int64(rec.Attempts))
	c.Obs.Counter("etsn_faults_shed_streams_total").Add(int64(len(rec.ShedTCT) + len(rec.ShedBE)))
	c.current = prob
	c.result = res
	c.gcls = gcls
	return rec, nil
}

// admitIncremental places the new streams into the deployed schedule's
// residual space without moving any existing slot, walking each failing
// stream through its alternate routes.
func (c *Controller) admitIncremental(reduced *model.Network, rec *Recovery,
	newTCT []*model.Stream, newECT []*model.ECT, routes map[model.StreamID][][]model.LinkID,
) (*core.Problem, *core.Result, error) {
	cur := cloneProblem(c.current)
	cur.Network = reduced

	tried := make(map[model.StreamID]int)
	budget := 1 + c.KPaths*(len(newTCT)+len(newECT))
	if budget > 16 {
		budget = 16
	}
	var lastErr error
	for attempt := 0; attempt < budget; attempt++ {
		rec.Attempts++
		for _, s := range newTCT {
			s.Path = append([]model.LinkID(nil), routes[s.ID][tried[s.ID]]...)
		}
		for _, e := range newECT {
			e.Path = append([]model.LinkID(nil), routes[e.ID][tried[e.ID]]...)
		}
		res, err := core.Admit(cur, c.result, newTCT, newECT)
		if err == nil {
			if vs := core.Verify(reduced, res); len(vs) > 0 {
				return nil, nil, fmt.Errorf("%w: incremental admission failed verification: %v",
					core.ErrInfeasible, vs[0])
			}
			prob := &core.Problem{Network: reduced, Opts: cur.Opts}
			prob.TCT = append(cur.TCT[:len(cur.TCT):len(cur.TCT)], newTCT...)
			prob.ECT = append(cur.ECT[:len(cur.ECT):len(cur.ECT)], newECT...)
			return prob, res, nil
		}
		lastErr = err
		var pf *core.PlaceFailure
		if !errors.As(err, &pf) {
			// Structural (ErrNeedsReplan) or validation errors cannot be
			// fixed by rerouting the new streams.
			return nil, nil, err
		}
		id := core.RerouteTarget(pf.Stream)
		alts, ok := routes[id]
		if !ok {
			// The placer tripped over a deployed stream: residual space is
			// exhausted around it, only a full replan can help.
			return nil, nil, fmt.Errorf("%w: deployed stream %q blocks admission: %v",
				core.ErrNeedsReplan, id, err)
		}
		if tried[id]+1 >= len(alts) {
			return nil, nil, fmt.Errorf("stream %q exhausted alternate routes during admission: %w", id, err)
		}
		tried[id]++
	}
	return nil, nil, fmt.Errorf("incremental admission budget exhausted: %w", lastErr)
}

// admitFull replans from scratch with the new streams included, allowing
// the degradation ladder to shed deployed BE and non-sharing TCT — but
// never the streams being admitted, and never ECT. Failure leaves the
// deployed plan untouched and reads as a rejection.
func (c *Controller) admitFull(reduced *model.Network, rec *Recovery,
	newTCT []*model.Stream, newECT []*model.ECT,
) (*core.Problem, *core.Result, error) {
	base := cloneProblem(c.pristine)
	base.TCT = append(base.TCT, pristineStreams(c.physical, newTCT)...)
	base.ECT = append(base.ECT, pristineECTs(c.physical, newECT)...)

	protected := make(map[model.StreamID]bool, len(newTCT)+len(newECT))
	for _, s := range newTCT {
		protected[s.ID] = true
	}
	for _, e := range newECT {
		protected[e.ID] = true
	}
	shedBE := make(map[model.StreamID]bool)
	prob, res, err := c.full(base, reduced, rec, shedBE, protected)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	rec.ShedBE = sortedIDs(shedBE)
	return prob, res, nil
}

// pristineStreams returns copies of the new TCT streams routed over their
// preferred (physical shortest) paths; an already-set path survives when
// the physical network cannot improve on it.
func pristineStreams(n *model.Network, streams []*model.Stream) []*model.Stream {
	out := make([]*model.Stream, len(streams))
	for i, s := range streams {
		cp := *s
		cp.Path = append([]model.LinkID(nil), s.Path...)
		if path, err := n.ShortestPath(s.Source(), s.Destination()); err == nil {
			cp.Path = path
		}
		out[i] = &cp
	}
	return out
}

// pristineECTs is pristineStreams for ECT requirements.
func pristineECTs(n *model.Network, ects []*model.ECT) []*model.ECT {
	out := make([]*model.ECT, len(ects))
	for i, e := range ects {
		cp := *e
		cp.Path = append([]model.LinkID(nil), e.Path...)
		if path, err := n.ShortestPath(e.Source(), e.Destination()); err == nil {
			cp.Path = path
		}
		out[i] = &cp
	}
	return out
}

// cloneStreams deep-copies a TCT slice (paths included).
func cloneStreams(in []*model.Stream) []*model.Stream {
	out := make([]*model.Stream, len(in))
	for i, s := range in {
		cp := *s
		cp.Path = append([]model.LinkID(nil), s.Path...)
		out[i] = &cp
	}
	return out
}

// cloneECTs deep-copies an ECT slice (paths included).
func cloneECTs(in []*model.ECT) []*model.ECT {
	out := make([]*model.ECT, len(in))
	for i, e := range in {
		cp := *e
		cp.Path = append([]model.LinkID(nil), e.Path...)
		out[i] = &cp
	}
	return out
}
