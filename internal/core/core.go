// Package core implements the E-TSN joint scheduler for time-triggered
// critical traffic (TCT) and event-triggered critical traffic (ECT), the
// primary contribution of the paper (Secs. III and IV).
//
// The pipeline is:
//
//  1. Probabilistic-stream expansion (Sec. III-B): every ECT stream becomes
//     N time-triggered "possibility" streams whose occurrence times tile the
//     minimum interevent time.
//  2. Prudent reservation (Sec. III-D, Alg. 1): sharing TCT streams get
//     extra frame slots on exactly the links where ECT may preempt them.
//  3. Constraint emission (Sec. IV): time, frame-overlap, priority, and
//     adjacent-link constraints over the frame offsets, all expressible in
//     integer difference logic.
//  4. Solving: either the exact SMT backend (internal/smt, substituting the
//     paper's Z3), a fast first-fit placer, or a hybrid that tries the
//     placer first; optionally Steiner-style incremental solving.
//
// Every produced schedule is re-checked by an independent verifier
// (Verify), so a placer bug cannot silently yield an invalid schedule.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"etsn/internal/model"
	"etsn/internal/obs"
)

// Sentinel errors returned by the scheduler.
var (
	// ErrInfeasible means no schedule satisfies the constraints.
	ErrInfeasible = errors.New("infeasible scheduling problem")
	// ErrInvalidProblem marks a structurally invalid problem.
	ErrInvalidProblem = errors.New("invalid scheduling problem")
	// ErrBudget means the solver ran out of its search budget.
	ErrBudget = errors.New("scheduling budget exhausted")
)

// Backend selects the solving strategy.
type Backend int

// Backends.
const (
	// BackendAuto tries the first-fit placer and falls back to SMT.
	BackendAuto Backend = iota + 1
	// BackendPlacer uses only the first-fit placer.
	BackendPlacer
	// BackendSMT uses only the exact SMT solver.
	BackendSMT
	// BackendSMTIncremental adds streams to the SMT solver one at a time
	// (Steiner-style incremental schedule synthesis).
	BackendSMTIncremental
	// BackendGreedy is the as-late-as-possible greedy placer: frames are
	// committed in reverse path order against their deadlines, leaving the
	// front of each period free for later streams.
	BackendGreedy
	// BackendCascade runs the backends in Options.Cascade one at a time, in
	// order, and stops at the first verified-feasible plan.
	BackendCascade
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendPlacer:
		return "placer"
	case BackendSMT:
		return "smt"
	case BackendSMTIncremental:
		return "smt-incremental"
	case BackendGreedy:
		return "greedy"
	case BackendCascade:
		return "cascade"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend maps a backend name (as accepted by the -backend CLI flags
// and the qcc "backend" config key) to its enum value. The empty string
// selects BackendAuto.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "auto":
		return BackendAuto, nil
	case "placer":
		return BackendPlacer, nil
	case "smt":
		return BackendSMT, nil
	case "smt-incremental":
		return BackendSMTIncremental, nil
	case "greedy":
		return BackendGreedy, nil
	// "race" is what the cascade was called while it ran its backends
	// concurrently; journals and configurations on disk carry it.
	case "cascade", "race":
		return BackendCascade, nil
	default:
		return 0, fmt.Errorf("%w: unknown backend %q (want auto|placer|greedy|smt|smt-incremental|cascade)",
			ErrInvalidProblem, name)
	}
}

// Capabilities describes what a backend guarantees about its answers.
type Capabilities struct {
	// Exact backends are complete: a failure is a proof of infeasibility
	// (or a budget exhaustion, which is reported as such). Heuristic
	// backends only ever give up; their failures carry no proof.
	Exact bool
	// Deterministic backends produce byte-identical schedules for the same
	// problem across runs; every backend is.
	Deterministic bool
	// Anytime backends honor context cancellation promptly mid-search.
	Anytime bool
}

// Capabilities reports the backend's guarantees.
func (b Backend) Capabilities() Capabilities {
	switch b {
	case BackendSMT, BackendSMTIncremental:
		return Capabilities{Exact: true, Deterministic: true, Anytime: true}
	default:
		// The placers run to completion in bounded time instead of
		// polling the context.
		return Capabilities{Deterministic: true}
	}
}

// DefaultNProb is the default number of probabilistic streams (possibility
// points) per ECT stream when Options.NProb is zero.
const DefaultNProb = 8

// autoFallbackDecisions bounds the SMT search when BackendAuto falls back
// from the placer without an explicit MaxDecisions budget.
const autoFallbackDecisions = 200_000

// Options tunes the scheduler.
type Options struct {
	// NProb is the number N of probabilistic streams each ECT stream is
	// expanded into; larger N lowers the pick-up delay bound T/N at the
	// cost of more constraints. Defaults to DefaultNProb.
	NProb int
	// Backend selects the solving strategy; defaults to BackendAuto.
	Backend Backend
	// MaxDecisions bounds SMT search effort; zero means unlimited.
	MaxDecisions int64
	// Timeout bounds the solve's wall-clock time — for every backend, not
	// just SMT: ScheduleContext derives a deadline context the greedy
	// placer and the cascade observe. Zero means unlimited.
	Timeout time.Duration
	// DisablePrudentReservation turns Alg. 1 off (for ablation only; the
	// verifier will typically report TCT deadline risks without it).
	DisablePrudentReservation bool
	// SpreadFrames staggers TCT placement (a deterministic per-stream
	// phase plus even in-period spacing of a stream's frames) instead of
	// packing everything as early as possible. This mirrors the slot
	// dispersion SMT solvers produce in practice and is what fragments
	// the unallocated time the AVB baseline depends on. Placer backend
	// only.
	SpreadFrames bool
	// MinimizeECT makes the SMT backends search for the schedule that
	// minimizes the worst per-possibility ECT latency instead of stopping
	// at the first satisfying assignment (binary-search optimization over
	// the exact solver). Ignored by the placer.
	MinimizeECT bool
	// Cascade lists the backends BackendCascade runs, in order: the first
	// one that returns a verified-feasible plan wins and the rest never
	// run. Empty means DefaultCascade. Entries must be concrete backends
	// (not BackendAuto or BackendCascade).
	Cascade []Backend
	// SharedReserves lets the extra slots that prudent reservation adds
	// for different sharing TCT streams overlap each other on the same
	// link. Alg. 1 as written reserves per (stream, link), which
	// over-provisions: one ECT event injects at most s_e.l frames of
	// displaced work per link per interevent time, so that much reserve
	// wire-time suffices regardless of which streams were displaced.
	// Without this relaxation the paper's own Fig. 14 parameters
	// (5-MTU ECT messages, 40 sharing streams) are capacity-infeasible.
	// The strict per-stream behaviour remains the default.
	SharedReserves bool
	// Obs receives scheduler metrics (solver effort, expansion and
	// reservation counters) when non-nil; a nil registry disables
	// instrumentation at zero cost.
	Obs *obs.Registry
	// Phases receives begin/end spans for the scheduler's pipeline
	// phases (expand, reserve, solve) when non-nil.
	Phases *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.NProb == 0 {
		o.NProb = DefaultNProb
	}
	if o.Backend == 0 {
		o.Backend = BackendAuto
	}
	return o
}

// Problem is a complete scheduling problem: the network plus the TCT and ECT
// stream sets.
type Problem struct {
	// Network is the physical topology.
	Network *model.Network
	// TCT is the set of time-triggered critical streams.
	TCT []*model.Stream
	// ECT is the set of event-triggered critical streams.
	ECT []*model.ECT
	// Opts tunes the scheduler.
	Opts Options
}

// Result is the scheduler output: the schedule plus derived analysis.
type Result struct {
	// Schedule assigns every frame slot an offset.
	Schedule *model.Schedule
	// Expanded holds all scheduled streams: TCT plus the probabilistic
	// streams derived from ECT.
	Expanded []*model.Stream
	// FrameCounts records |F_{s,link}| after prudent reservation.
	FrameCounts map[model.StreamID]map[model.LinkID]int
	// BackendUsed reports which backend produced the schedule.
	BackendUsed Backend
	// SharedReserves records whether the schedule was produced under the
	// shared-reserve relaxation (the verifier needs to know).
	SharedReserves bool
	// SolverStats carries SMT effort counters when the SMT backend ran.
	SolverStats SolverStats
	// Verified reports that the cascade checked this plan with Verify
	// against the problem's network and found no violation. Callers that
	// would verify the same plan on the same network skip their own check
	// when it is set; results of every other backend leave it false.
	Verified bool
}

// SolverStats summarizes SMT search effort, accumulated over every
// Solve call the backend made (incremental re-solves, Minimize probes).
type SolverStats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	TheoryChecks int64
	// Restarts counts in-search Luby restarts (CDCL mode only; distinct
	// from Solves, which counts full Solve calls).
	Restarts int64
	// Learned counts conflict clauses learned by 1UIP analysis.
	Learned int64
	// TheoryProps counts literals assigned by difference-logic theory
	// propagation (only non-zero when the optional pass is enabled).
	TheoryProps int64
	// MaxDecisionLevel is the deepest decision level any search reached.
	MaxDecisionLevel int64
	// Solves is the number of Solve calls the backend made.
	Solves  int64
	Clauses int
	Vars    int
}

// Schedule solves the joint TCT+ECT scheduling problem.
func Schedule(p *Problem) (*Result, error) {
	return ScheduleContext(context.Background(), p)
}

// ScheduleContext solves the problem under a context: cancellation stops
// the SMT backends (the two placers run to completion in bounded time
// instead of polling).
func ScheduleContext(ctx context.Context, p *Problem) (*Result, error) {
	opts := p.Opts.withDefaults()
	// Timeout bounds this call for every backend uniformly: the SMT
	// deadline still applies inside the solver, and the greedy placer and
	// the cascade observe the context.
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	inst, err := buildInstance(p, opts)
	if err != nil {
		return nil, err
	}
	sp := opts.Phases.Begin("solve", "backend", opts.Backend.String())
	res, err := dispatchBackend(ctx, inst, opts)
	sp.End()
	if err != nil {
		return nil, err
	}
	opts.Obs.Counter("etsn_core_solves_total{backend=\"" + res.BackendUsed.String() + "\"}").Inc()
	return res, nil
}

// dispatchBackend runs the backend the options select.
func dispatchBackend(ctx context.Context, inst *instance, opts Options) (*Result, error) {
	switch opts.Backend {
	case BackendCascade:
		return solveCascade(ctx, inst)
	case BackendAuto:
		// Bound the fallback search so auto mode cannot hang on large
		// instances the placer could not close (the placer ignores it).
		if inst.opts.MaxDecisions == 0 {
			inst.opts.MaxDecisions = autoFallbackDecisions
		}
		// No in-loop Verify: auto never had one, and the planners that run
		// it (sched.Build, qcc.Compute) re-check the plan themselves.
		res, errs := runStages(ctx, inst, []Backend{BackendPlacer, BackendSMTIncremental}, false)
		if res == nil {
			return nil, fmt.Errorf("placer failed (%w); smt: %w", errs[0], errs[1])
		}
		return res, nil
	default:
		return solveBackend(ctx, inst, opts.Backend)
	}
}

// solveBackend runs one concrete backend over the instance, timing it and
// publishing the per-backend effort metrics
// (etsn_backend_solves_total{backend} and a solve-latency histogram).
func solveBackend(ctx context.Context, inst *instance, b Backend) (*Result, error) {
	start := time.Now()
	var res *Result
	var err error
	switch b {
	case BackendPlacer:
		res, err = solvePlacer(inst)
	case BackendGreedy:
		res, err = solveGreedy(ctx, inst)
	case BackendSMT:
		res, err = solveSMT(ctx, inst, false)
	case BackendSMTIncremental:
		res, err = solveSMT(ctx, inst, true)
	default:
		return nil, fmt.Errorf("%w: unknown backend %v", ErrInvalidProblem, b)
	}
	if reg := inst.opts.Obs; reg != nil {
		n := b.String()
		reg.Counter(`etsn_backend_solves_total{backend="` + n + `"}`).Inc()
		reg.Histogram(`etsn_backend_solve_latency_ns{backend="` + n + `"}`).ObserveDuration(time.Since(start))
	}
	return res, err
}

// instance is the expanded, unit-normalized problem the solvers consume.
type instance struct {
	problem *Problem
	opts    Options
	// unit is the network-wide scheduling time unit.
	unit time.Duration
	// streams are all streams to schedule: TCT then probabilistic.
	streams []*model.Stream
	// frames[streamID][linkID] is |F_{s,link}| after prudent reservation.
	frames map[model.StreamID]map[model.LinkID]int
	// periodUnits, otUnits, otFloorUnits and e2eUnits are indexed like
	// streams: the period T; the occurrence time rounded up (the first slot
	// may not precede the real event instant) and rounded down (latency
	// budgets measure from it, so the grid rounding stays conservative);
	// and the latency bound, all in units.
	periodUnits, otUnits, otFloorUnits, e2eUnits []int64
	// hyper is the schedule hyperperiod in units.
	hyper int64
	// linkIdx numbers the links any stream crosses densely, in first-seen
	// order; hops[i] lays streams[i]'s path out over them and nFrames
	// counts every frame of the instance. Together they are the slot
	// table's index layout.
	linkIdx map[model.LinkID]int
	hops    [][]hop
	nFrames int
}

// hop is one link of a stream's path, resolved once so the backends' inner
// loops index slices instead of hashing stream and link IDs.
type hop struct {
	lid   model.LinkID
	link  int // dense link index (instance.linkIdx)
	count int // |F_{s,link}| after prudent reservation
	base  int // slot-table index of the hop's frame 0
	// tx and lastTx are the full-MTU and final-fragment transmission
	// times, prop the link's propagation delay, all in units.
	tx, lastTx, prop int64
}

// frameLen returns the slot length for frame j of s on the hop: full MTU
// for all fragments except the message's final one, whose slot matches its
// actual size. Reserve slots are sized for a full MTU so they can drain any
// displaced fragment.
func (h *hop) frameLen(s *model.Stream, j int) int64 {
	if j == s.Frames()-1 {
		return h.lastTx
	}
	return h.tx
}

// buildInstance validates the problem, expands ECT streams, runs prudent
// reservation, and normalizes all times to the common link time unit.
func buildInstance(p *Problem, opts Options) (*instance, error) {
	if p.Network == nil {
		return nil, fmt.Errorf("%w: nil network", ErrInvalidProblem)
	}
	if err := p.Network.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidProblem, err)
	}
	unit, err := commonTimeUnit(p.Network)
	if err != nil {
		return nil, err
	}

	seen := make(map[model.StreamID]bool, len(p.TCT)+len(p.ECT))
	for _, s := range p.TCT {
		if err := s.Validate(p.Network); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidProblem, err)
		}
		if s.Type != model.StreamDet {
			return nil, fmt.Errorf("%w: TCT stream %q has type %v", ErrInvalidProblem, s.ID, s.Type)
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("%w: duplicate stream %q", ErrInvalidProblem, s.ID)
		}
		seen[s.ID] = true
	}
	for _, e := range p.ECT {
		if err := e.Validate(p.Network); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidProblem, err)
		}
		if seen[e.ID] {
			return nil, fmt.Errorf("%w: duplicate stream %q", ErrInvalidProblem, e.ID)
		}
		seen[e.ID] = true
	}

	// Expand ECT into probabilistic streams (Sec. III-B).
	spExpand := opts.Phases.Begin("expand")
	streams := make([]*model.Stream, 0, len(p.TCT)+len(p.ECT)*opts.NProb)
	for _, s := range p.TCT {
		cp := *s
		cp.Path = append([]model.LinkID(nil), s.Path...)
		assignPriority(&cp)
		streams = append(streams, &cp)
	}
	for _, e := range p.ECT {
		ps, err := ExpandECT(e, opts.NProb)
		if err != nil {
			spExpand.End()
			return nil, err
		}
		opts.Obs.Counter("etsn_core_possibilities_total").Add(int64(len(ps)))
		streams = append(streams, ps...)
	}
	if opts.SharedReserves && !opts.DisablePrudentReservation {
		streams = append(streams, drainStreams(p, streams)...)
	}
	spExpand.End()

	inst := &instance{
		problem:      p,
		opts:         opts,
		unit:         unit,
		streams:      streams,
		frames:       make(map[model.StreamID]map[model.LinkID]int, len(streams)),
		periodUnits:  make([]int64, len(streams)),
		otUnits:      make([]int64, len(streams)),
		otFloorUnits: make([]int64, len(streams)),
		e2eUnits:     make([]int64, len(streams)),
		linkIdx:      make(map[model.LinkID]int),
		hops:         make([][]hop, 0, len(streams)),
	}

	// Frame counts: base counts, then prudent reservation (Alg. 1).
	spReserve := opts.Phases.Begin("reserve")
	for _, s := range streams {
		counts := make(map[model.LinkID]int, len(s.Path))
		for _, l := range s.Path {
			counts[l] = s.Frames()
		}
		inst.frames[s.ID] = counts
	}
	if !opts.DisablePrudentReservation && !opts.SharedReserves {
		applyPrudentReservation(inst, p.ECT)
	}
	if opts.Obs != nil {
		var extra int64
		for _, s := range streams {
			for _, c := range inst.frames[s.ID] {
				extra += int64(c - s.Frames())
			}
		}
		opts.Obs.Counter("etsn_core_reserve_extra_slots_total").Add(extra)
		opts.Obs.Counter("etsn_core_streams_total").Add(int64(len(streams)))
	}
	spReserve.End()

	// Normalize times to units.
	inst.hyper = 1
	for si, s := range streams {
		if int64(s.Period)%int64(unit) != 0 {
			return nil, fmt.Errorf("%w: stream %q period %v is not a multiple of time unit %v",
				ErrInvalidProblem, s.ID, s.Period, unit)
		}
		t := int64(s.Period) / int64(unit)
		inst.periodUnits[si] = t
		inst.hyper = model.LCM(inst.hyper, t)
		// Occurrence times round *up* to the unit grid: a possibility's
		// first slot must not start before the real event instant it
		// models (the worst-case analysis floors the previous possibility
		// instead, staying conservative on both sides).
		inst.otUnits[si] = model.DurationToUnits(s.OccurrenceTime, unit)
		inst.otFloorUnits[si] = int64(s.OccurrenceTime) / int64(unit)
		inst.e2eUnits[si] = int64(s.E2E) / int64(unit)
		lastBytes := s.LengthBytes - (s.Frames()-1)*model.MTUBytes
		hops := make([]hop, 0, len(s.Path))
		for _, lid := range s.Path {
			link, _ := p.Network.LinkByID(lid)
			li, ok := inst.linkIdx[lid]
			if !ok {
				li = len(inst.linkIdx)
				inst.linkIdx[lid] = li
			}
			h := hop{lid: lid, link: li, count: inst.frames[s.ID][lid], base: inst.nFrames,
				tx: link.TxUnits(model.MTUBytes), lastTx: link.TxUnits(lastBytes), prop: link.PropUnits()}
			inst.nFrames += h.count
			hops = append(hops, h)
		}
		inst.hops = append(inst.hops, hops)
	}
	return inst, nil
}

// commonTimeUnit checks that all links agree on one scheduling unit.
func commonTimeUnit(n *model.Network) (time.Duration, error) {
	var unit time.Duration
	for _, l := range n.Links() {
		if unit == 0 {
			unit = l.TimeUnit
			continue
		}
		if l.TimeUnit != unit {
			return 0, fmt.Errorf("%w: links disagree on time unit (%v vs %v on %s)",
				ErrInvalidProblem, unit, l.TimeUnit, l.ID())
		}
	}
	if unit == 0 {
		unit = model.DefaultTimeUnit
	}
	return unit, nil
}

// assignPriority places a TCT stream into the paper's priority bands when
// the caller did not pick a priority inside the stream's band.
func assignPriority(s *model.Stream) {
	inBand := func(p int) bool {
		if s.Share {
			return p >= model.PrioritySharedLow && p <= model.PrioritySharedHigh
		}
		return p >= model.PriorityNonSharedLow && p <= model.PriorityNonSharedHigh
	}
	if s.Priority != 0 && inBand(s.Priority) {
		return
	}
	if s.Share {
		s.Priority = model.PrioritySharedLow
	} else {
		s.Priority = model.PriorityNonSharedLow + 1
	}
}

// canOverlap implements the paper's frame-overlap exception (Sec. IV-B2):
// slots may overlap iff they belong to two possibilities of the same ECT
// stream, or to a probabilistic stream and a TCT stream that shares its
// time-slots.
func canOverlap(a, b *model.Stream) bool {
	if a.Type == model.StreamProb && b.Type == model.StreamProb {
		return a.Parent == b.Parent
	}
	if a.Type == model.StreamProb && b.Type == model.StreamDet {
		return b.Share
	}
	if b.Type == model.StreamProb && a.Type == model.StreamDet {
		return a.Share
	}
	return false
}

// slotsCanOverlap extends canOverlap to frame granularity: under the
// SharedReserves relaxation, reserve slots absorbing the *same* ECT
// stream's displacements may share wire time; reserves for different ECT
// streams may be needed simultaneously and must stay disjoint.
func slotsCanOverlap(a, b *model.Stream, aReserve, bReserve, sharedReserves bool) bool {
	if canOverlap(a, b) {
		return true
	}
	return sharedReserves && aReserve && bReserve && a.Parent == b.Parent &&
		a.Type == model.StreamDet && a.Share &&
		b.Type == model.StreamDet && b.Share
}

// upstreamIndex maps frame j of a hop carrying count frames to the frame of
// the upstream hop (cUp frames) it must wait for, constraint (7): prudent
// reservation can leave the two hops with different counts, so indexes
// shift by o = max(cUp - count, 0) and clamp to the last upstream frame.
func upstreamIndex(j, count, cUp int) int {
	if cUp > count {
		j += cUp - count
	}
	if j >= cUp {
		return cUp - 1
	}
	return j
}

// isReserveIndex reports whether frame j of a stream on a link is reserve
// capacity: any frame of a reservation-only drain stream, or a
// prudent-reservation extra (indexes at or beyond the talker's own frames).
func (inst *instance) isReserveIndex(s *model.Stream, j int) bool {
	if s.Reserve {
		return true
	}
	return s.Type == model.StreamDet && j >= s.Frames()
}
