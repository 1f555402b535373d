package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"etsn/internal/obs"
)

// BenchSolver is the solver-effort section of a bench artifact, harvested
// from the etsn_smt_* metric family.
type BenchSolver struct {
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	TheoryChecks int64 `json:"theory_checks"`
	Restarts     int64 `json:"restarts"`
	Learned      int64 `json:"learned"`
	TheoryProps  int64 `json:"theory_props"`
	Solves       int64 `json:"solves"`
	Clauses      int64 `json:"clauses"`
	Vars         int64 `json:"vars"`
}

// BenchSim is the simulator-throughput section, harvested from the
// etsn_sim_* metric family.
type BenchSim struct {
	Events       int64 `json:"events"`
	EventsPerSec int64 `json:"events_per_sec"`
	Delivered    int64 `json:"delivered"`
	Drops        int64 `json:"drops"`
	Lost         int64 `json:"lost"`
}

// BenchAttrib is the attribution/conformance section, harvested from the
// etsn_sim_attrib_* and etsn_sim_bound_* counters. Present only on runs
// that enabled attribution or had bounded streams.
type BenchAttrib struct {
	Frames       int64 `json:"frames"`
	BoundChecked int64 `json:"bound_checked"`
	BoundMisses  int64 `json:"bound_misses"`
}

// BenchSMTRun is one side (CDCL or Reference) of an SMT bench class run:
// the solver's aggregate effort counters plus wall time.
type BenchSMTRun struct {
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	Learned      int64 `json:"learned"`
	Restarts     int64 `json:"restarts"`
	TheoryProps  int64 `json:"theory_props"`
	WallUs       int64 `json:"wall_us"`
}

// BenchSMTClass compares both solver modes on one hard instance class.
// The committed artifact is a regression gate: Validate demands the CDCL
// side beat the reference oracle on every class.
type BenchSMTClass struct {
	Name      string      `json:"name"`
	CDCL      BenchSMTRun `json:"cdcl"`
	Reference BenchSMTRun `json:"reference"`
}

// BenchBackendPoint is one (load, backend) standalone solve measurement of
// the cross-backend benchmark.
type BenchBackendPoint struct {
	Load    float64 `json:"load"`
	Backend string  `json:"backend"`
	WallUs  int64   `json:"wall_us"`
	// Feasible records whether the backend produced a plan; Verified
	// whether that plan passed core.Verify with zero violations. A
	// feasible-but-unverified point is a backend soundness bug and fails
	// validation.
	Feasible bool   `json:"feasible"`
	Verified bool   `json:"verified,omitempty"`
	Slots    int    `json:"slots,omitempty"`
	Err      string `json:"err,omitempty"`
}

// BenchBackendCascade is the default cascade's measurement at one load.
type BenchBackendCascade struct {
	Load     float64 `json:"load"`
	WallUs   int64   `json:"wall_us"`
	Winner   string  `json:"winner"`
	Verified bool    `json:"verified"`
}

// BenchBackends is the cross-backend scheduler benchmark section
// (BENCH_backends.json): every backend of the default cascade solved
// standalone over the fig11 load grid, plus one cascade per load. Artifacts
// carrying this section are solver-only and skip the simulator gates.
type BenchBackends struct {
	// TimeoutMs is the per-solve budget the sweep ran with.
	TimeoutMs int64                 `json:"timeout_ms"`
	Points    []BenchBackendPoint   `json:"points"`
	Cascades  []BenchBackendCascade `json:"cascades"`
}

// BenchScalePoint is one (family, cells) grid point of the cellular corpus
// sweep, solved through the placer+greedy cascade.
type BenchScalePoint struct {
	Family  string `json:"family"`
	Cells   int    `json:"cells"`
	Streams int    `json:"streams"`
	// WallUs is the median solve wall.
	WallUs int64 `json:"wall_us"`
	// Verified records whether the plan passed the independent verifier
	// with zero violations.
	Verified bool `json:"verified"`
}

// BenchScale is the corpus-sweep section of the scale artifact
// (BENCH_scale.json): solver-only walls per grid point.
type BenchScale struct {
	// Cpus is the machine's CPU count at run time. The scaling gate
	// compares two walls of the same run, so it applies on any CPU count.
	Cpus           int               `json:"cpus"`
	StreamsPerCell int               `json:"streams_per_cell"`
	Points         []BenchScalePoint `json:"points"`
}

// benchScaleMinStreams is the corpus-size floor: the sweep must reach at
// least this many streams at its largest grid point for the scaling claim
// to count as a scale result.
const benchScaleMinStreams = 2000

// benchScaleMaxDoubling bounds how much the solve wall may grow
// when the corpus doubles (streams and links together). Linear placement
// doubles it; the retired per-stream snapshot of every link tripled it
// (3.0x in the last artifact committed with it). The headroom above 2x
// covers GC growth and the spread of ~40 ms walls on a shared 2-CPU host.
const benchScaleMaxDoubling = 2.6

// The cascade-overhead gate: the cascade wall may exceed its winner's
// standalone wall by at most this factor plus the fixed slack. A cascade
// won by its head is that backend's solve plus one Verify of its plan; the
// slack covers the Verify and scheduler noise on walls of about a
// millisecond.
const (
	benchCascadeOverheadFactor = 2
	benchCascadeSlackUs        = 5_000
)

// BenchLatency summarizes the end-to-end delivery latency histogram.
type BenchLatency struct {
	P50Ns int64 `json:"p50_ns"`
	P90Ns int64 `json:"p90_ns"`
	P99Ns int64 `json:"p99_ns"`
	MaxNs int64 `json:"max_ns"`
}

// BenchArtifact is the machine-readable benchmark record one experiment run
// emits (BENCH_<experiment>.json): enough to compare solver effort and
// simulation throughput across commits without re-parsing tables.
type BenchArtifact struct {
	// Experiment names the run ("headline", "fig11", ...).
	Experiment string `json:"experiment"`
	// Tool identifies the producer.
	Tool string `json:"tool"`
	// Seed and SimDurationNs record the run parameters.
	Seed          int64 `json:"seed"`
	SimDurationNs int64 `json:"sim_duration_ns"`
	// WallMs is the experiment's wall-clock time in milliseconds.
	WallMs int64 `json:"wall_ms"`
	// Parallel is the worker-pool width the run used (1 = sequential).
	Parallel int `json:"parallel,omitempty"`
	// WallSequentialMs, when present, is the wall time of a sequential
	// (Parallel=1) rerun of the same experiment, recorded so the artifact
	// carries the fan-out speedup alongside the parallel time.
	WallSequentialMs int64 `json:"wall_sequential_ms,omitempty"`
	// Solver and Sim carry the effort and throughput counters.
	Solver BenchSolver `json:"solver"`
	Sim    BenchSim    `json:"sim"`
	// Latency is present when the run delivered at least one message.
	Latency *BenchLatency `json:"latency,omitempty"`
	// Attrib is present when the run attributed frames or scored bounds.
	Attrib *BenchAttrib `json:"attrib,omitempty"`
	// SMT is present on the solver micro-benchmark run: per-class
	// CDCL-versus-reference effort and wall-time comparisons. Runs with a
	// non-empty SMT section are solver-only and carry no simulator traffic.
	SMT []BenchSMTClass `json:"smt_classes,omitempty"`
	// Backends is present on the cross-backend benchmark artifact
	// (BENCH_backends.json). Like SMT, such artifacts are solver-only.
	Backends *BenchBackends `json:"backends,omitempty"`
	// Scale is present on the scale artifact (BENCH_scale.json): the
	// cellular corpus sweep, gated on every plan verifying and on the
	// solve wall scaling linearly in the corpus.
	Scale *BenchScale `json:"scale,omitempty"`
}

// NewBenchArtifact harvests a registry into a bench artifact. The registry
// must be the one the experiment ran with; wall is the experiment's
// wall-clock time.
func NewBenchArtifact(experiment string, reg *obs.Registry, opts RunOptions, wall time.Duration) *BenchArtifact {
	opts = opts.withDefaults()
	parallel := opts.Parallel
	if parallel < 1 {
		parallel = 1
	}
	a := &BenchArtifact{
		Experiment:    experiment,
		Tool:          "etsn-bench",
		Seed:          opts.Seed,
		SimDurationNs: int64(opts.Duration),
		WallMs:        wall.Milliseconds(),
		Parallel:      parallel,
		Solver: BenchSolver{
			Decisions:    reg.CounterValue("etsn_smt_decisions_total"),
			Propagations: reg.CounterValue("etsn_smt_propagations_total"),
			Conflicts:    reg.CounterValue("etsn_smt_conflicts_total"),
			TheoryChecks: reg.CounterValue("etsn_smt_theory_checks_total"),
			Restarts:     reg.CounterValue("etsn_smt_restarts_total"),
			Learned:      reg.CounterValue("etsn_smt_learned_clauses"),
			TheoryProps:  reg.CounterValue("etsn_smt_theory_props_total"),
			Solves:       reg.CounterValue("etsn_smt_solves_total"),
			Clauses:      reg.GaugeValue("etsn_smt_clauses"),
			Vars:         reg.GaugeValue("etsn_smt_vars"),
		},
		Sim: BenchSim{
			Events:       reg.CounterValue("etsn_sim_events_total"),
			EventsPerSec: reg.GaugeValue("etsn_sim_events_per_sec"),
			Delivered:    reg.CounterValue("etsn_sim_delivered_total"),
			Drops:        reg.CounterValue("etsn_sim_drops_total"),
			Lost:         reg.CounterValue("etsn_sim_lost_total"),
		},
	}
	if h, ok := reg.HistogramSnapshotFor("etsn_sim_latency_ns"); ok && h.Count > 0 {
		a.Latency = &BenchLatency{
			P50Ns: h.Quantile(0.50),
			P90Ns: h.Quantile(0.90),
			P99Ns: h.Quantile(0.99),
			MaxNs: h.Max,
		}
	}
	attrib := BenchAttrib{
		Frames:       reg.CounterValue("etsn_sim_attrib_frames_total"),
		BoundChecked: reg.CounterValue("etsn_sim_bound_checked_total"),
		BoundMisses:  reg.CounterValue("etsn_sim_bound_miss_total"),
	}
	if attrib.Frames > 0 || attrib.BoundChecked > 0 {
		a.Attrib = &attrib
	}
	return a
}

// Write saves the artifact as indented JSON.
func (a *BenchArtifact) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return err
	}
	return f.Close()
}

// AppendHistory adds one JSON line for a completed experiment to a running
// log (bench/history.jsonl in this repo), so wall-time trends accumulate
// across commits. The line shape matches dash.HistoryEntry, which is how
// etsn-bench -trend and the dashboard's /api/trend read it back.
func AppendHistory(path, name string, art *BenchArtifact, at time.Time) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line := struct {
		Experiment string `json:"experiment"`
		WallMs     int64  `json:"wall_ms"`
		Parallel   int    `json:"parallel"`
		Seed       int64  `json:"seed"`
		UnixMs     int64  `json:"unix_ms"`
	}{name, art.WallMs, art.Parallel, art.Seed, at.UnixMilli()}
	if err := json.NewEncoder(f).Encode(line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBenchArtifact reads an artifact back from disk.
func LoadBenchArtifact(path string) (*BenchArtifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a BenchArtifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

// Validate checks the artifact for the invariants CI relies on: a run that
// scheduled and simulated anything at all must show simulator activity,
// positive throughput, and a positive wall time. Solver effort may be zero
// (placer-only runs), but a run that claims solves must also show theory
// activity. Solver-only artifacts (non-empty SMT section) skip the
// simulator checks and instead gate on CDCL strictly beating the reference
// oracle — fewer decisions+conflicts AND lower wall time — on every class.
// Cross-backend artifacts (Backends section) are likewise solver-only and
// gate on every plan being verifier-clean, a heuristic beating the exact
// solver's wall at the heaviest load, and the cascade wall tracking its
// winner's standalone wall within the overhead bound.
func (a *BenchArtifact) Validate() error {
	if len(a.SMT) > 0 {
		return a.validateSMT()
	}
	if a.Backends != nil {
		return a.validateBackends()
	}
	switch {
	case a.Experiment == "":
		return fmt.Errorf("bench artifact: empty experiment name")
	case a.WallMs <= 0:
		return fmt.Errorf("bench artifact %s: wall_ms = %d", a.Experiment, a.WallMs)
	case a.Sim.Events <= 0:
		return fmt.Errorf("bench artifact %s: no simulator events", a.Experiment)
	case a.Sim.EventsPerSec <= 0:
		return fmt.Errorf("bench artifact %s: events_per_sec = %d", a.Experiment, a.Sim.EventsPerSec)
	case a.Sim.Delivered <= 0:
		return fmt.Errorf("bench artifact %s: nothing delivered", a.Experiment)
	case a.Solver.Solves > 0 && a.Solver.Propagations == 0:
		return fmt.Errorf("bench artifact %s: %d solves but no propagations",
			a.Experiment, a.Solver.Solves)
	case a.Parallel < 0:
		return fmt.Errorf("bench artifact %s: parallel = %d", a.Experiment, a.Parallel)
	case a.WallSequentialMs < 0:
		return fmt.Errorf("bench artifact %s: wall_sequential_ms = %d",
			a.Experiment, a.WallSequentialMs)
	}
	if err := a.validateScale(); err != nil {
		return err
	}
	return a.validateAttrib()
}

// validateScale gates the corpus sweep section. The invariants CI relies
// on:
//
//   - soundness: every plan passed the independent verifier;
//   - corpus shape: the sweep reaches at least benchScaleMinStreams
//     streams;
//   - the perf claim: placement scales linearly in the corpus — in every
//     family the wall at the largest grid point is at most
//     benchScaleMaxDoubling times the wall at the point half its size.
func (a *BenchArtifact) validateScale() error {
	s := a.Scale
	if s == nil {
		return nil
	}
	if len(s.Points) == 0 {
		return fmt.Errorf("bench artifact %s: empty scale sweep", a.Experiment)
	}
	if s.StreamsPerCell <= 0 {
		return fmt.Errorf("bench artifact %s: scale streams_per_cell = %d",
			a.Experiment, s.StreamsPerCell)
	}
	largest := map[string]BenchScalePoint{}
	type sizeKey struct {
		family  string
		streams int
	}
	wall := map[sizeKey]int64{}
	maxStreams := 0
	for _, pt := range s.Points {
		switch {
		case pt.Family == "":
			return fmt.Errorf("bench artifact %s: scale point without a family", a.Experiment)
		case pt.Cells <= 0 || pt.Streams <= 0:
			return fmt.Errorf("bench artifact %s: scale %s point has cells=%d streams=%d",
				a.Experiment, pt.Family, pt.Cells, pt.Streams)
		case pt.WallUs <= 0:
			return fmt.Errorf("bench artifact %s: scale %s/%d has a non-positive wall (%dus)",
				a.Experiment, pt.Family, pt.Cells, pt.WallUs)
		case !pt.Verified:
			return fmt.Errorf("bench artifact %s: scale %s/%d plan failed verification",
				a.Experiment, pt.Family, pt.Cells)
		}
		if pt.Streams > maxStreams {
			maxStreams = pt.Streams
		}
		if best, ok := largest[pt.Family]; !ok || pt.Streams > best.Streams {
			largest[pt.Family] = pt
		}
		wall[sizeKey{pt.Family, pt.Streams}] = pt.WallUs
	}
	if maxStreams < benchScaleMinStreams {
		return fmt.Errorf("bench artifact %s: scale sweep tops out at %d streams, need >= %d",
			a.Experiment, maxStreams, benchScaleMinStreams)
	}
	for family, pt := range largest {
		half, ok := wall[sizeKey{family, pt.Streams / 2}]
		if !ok || pt.Streams%2 != 0 {
			return fmt.Errorf("bench artifact %s: scale %s sweep has no point at half its largest (%d streams)",
				a.Experiment, family, pt.Streams)
		}
		if float64(pt.WallUs) > benchScaleMaxDoubling*float64(half) {
			return fmt.Errorf("bench artifact %s: scale %s/%d: wall %dus is %.2fx the %dus at half the streams, want <= %.1fx (superlinear placement)",
				a.Experiment, family, pt.Cells, pt.WallUs, float64(pt.WallUs)/float64(half), half, benchScaleMaxDoubling)
		}
	}
	return nil
}

// validateSMT gates the solver micro-benchmark artifact: every class must
// show the CDCL search strictly beating the chronological reference on
// both search effort (decisions + conflicts) and wall time.
func (a *BenchArtifact) validateSMT() error {
	if a.Experiment == "" {
		return fmt.Errorf("bench artifact: empty experiment name")
	}
	if a.WallMs <= 0 {
		return fmt.Errorf("bench artifact %s: wall_ms = %d", a.Experiment, a.WallMs)
	}
	for _, c := range a.SMT {
		switch {
		case c.Name == "":
			return fmt.Errorf("bench artifact %s: unnamed smt class", a.Experiment)
		case c.CDCL.WallUs <= 0 || c.Reference.WallUs <= 0:
			return fmt.Errorf("bench artifact %s: class %s has non-positive wall time",
				a.Experiment, c.Name)
		case c.CDCL.Decisions+c.CDCL.Conflicts >= c.Reference.Decisions+c.Reference.Conflicts:
			return fmt.Errorf("bench artifact %s: class %s: cdcl effort %d+%d not below reference %d+%d",
				a.Experiment, c.Name, c.CDCL.Decisions, c.CDCL.Conflicts,
				c.Reference.Decisions, c.Reference.Conflicts)
		case c.CDCL.WallUs >= c.Reference.WallUs:
			return fmt.Errorf("bench artifact %s: class %s: cdcl wall %dus not below reference %dus",
				a.Experiment, c.Name, c.CDCL.WallUs, c.Reference.WallUs)
		case c.Reference.Learned != 0 || c.Reference.Restarts != 0:
			return fmt.Errorf("bench artifact %s: class %s: reference side reports CDCL-only effort",
				a.Experiment, c.Name)
		}
	}
	return nil
}

// benchExactBackend reports whether a backend name denotes an exact solver
// (whose failures are infeasibility proofs rather than give-ups).
func benchExactBackend(name string) bool {
	return name == "smt" || name == "smt-incremental"
}

// validateBackends gates the cross-backend benchmark artifact. The
// invariants CI relies on:
//
//   - soundness: every feasible point (and every cascade) carries a
//     verifier-clean plan — a backend that ships an invalid schedule must
//     never look like a win;
//   - the perf claim: at the heaviest load, at least one heuristic backend
//     solved the instance in less wall time than the exact SMT backend
//     spent (solving, proving infeasibility, or timing out);
//   - the cascade claim: each cascade's winner is one of the backends
//     solved standalone, feasible there, and the cascade's wall stays
//     within the overhead bound of that standalone wall — nothing behind
//     the winner ran.
func (a *BenchArtifact) validateBackends() error {
	b := a.Backends
	switch {
	case a.Experiment == "":
		return fmt.Errorf("bench artifact: empty experiment name")
	case a.WallMs <= 0:
		return fmt.Errorf("bench artifact %s: wall_ms = %d", a.Experiment, a.WallMs)
	case b.TimeoutMs <= 0:
		return fmt.Errorf("bench artifact %s: backends timeout_ms = %d", a.Experiment, b.TimeoutMs)
	case len(b.Points) == 0 || len(b.Cascades) == 0:
		return fmt.Errorf("bench artifact %s: backends section has %d points, %d cascades",
			a.Experiment, len(b.Points), len(b.Cascades))
	}
	maxLoad := 0.0
	// standalone[load][backend] is the wall of each feasible standalone point.
	standalone := map[float64]map[string]int64{}
	var smtWallAtMax, heurBestAtMax int64
	for _, pt := range b.Points {
		if pt.Load > maxLoad {
			maxLoad = pt.Load
		}
	}
	for _, pt := range b.Points {
		switch {
		case pt.Backend == "":
			return fmt.Errorf("bench artifact %s: unnamed backend point", a.Experiment)
		case pt.WallUs <= 0:
			return fmt.Errorf("bench artifact %s: backend %s at load %v has wall %dus",
				a.Experiment, pt.Backend, pt.Load, pt.WallUs)
		case pt.Feasible && !pt.Verified:
			return fmt.Errorf("bench artifact %s: backend %s at load %v shipped an unverified plan",
				a.Experiment, pt.Backend, pt.Load)
		case !pt.Feasible && pt.Err == "":
			return fmt.Errorf("bench artifact %s: backend %s at load %v infeasible with no error",
				a.Experiment, pt.Backend, pt.Load)
		}
		if pt.Feasible {
			if standalone[pt.Load] == nil {
				standalone[pt.Load] = map[string]int64{}
			}
			standalone[pt.Load][pt.Backend] = pt.WallUs
		}
		if pt.Load == maxLoad && benchExactBackend(pt.Backend) {
			if smtWallAtMax == 0 || pt.WallUs < smtWallAtMax {
				smtWallAtMax = pt.WallUs
			}
		}
		if pt.Load == maxLoad && !benchExactBackend(pt.Backend) && pt.Feasible {
			if heurBestAtMax == 0 || pt.WallUs < heurBestAtMax {
				heurBestAtMax = pt.WallUs
			}
		}
	}
	if smtWallAtMax == 0 {
		return fmt.Errorf("bench artifact %s: no exact backend point at load %v", a.Experiment, maxLoad)
	}
	if heurBestAtMax == 0 {
		return fmt.Errorf("bench artifact %s: no feasible heuristic point at load %v", a.Experiment, maxLoad)
	}
	if heurBestAtMax >= smtWallAtMax {
		return fmt.Errorf("bench artifact %s: best heuristic wall %dus not below exact solver wall %dus at load %v",
			a.Experiment, heurBestAtMax, smtWallAtMax, maxLoad)
	}
	for _, rc := range b.Cascades {
		switch {
		case rc.WallUs <= 0:
			return fmt.Errorf("bench artifact %s: cascade at load %v has wall %dus",
				a.Experiment, rc.Load, rc.WallUs)
		case !rc.Verified:
			return fmt.Errorf("bench artifact %s: cascade at load %v won with an unverified plan",
				a.Experiment, rc.Load)
		}
		won, ok := standalone[rc.Load][rc.Winner]
		if !ok {
			return fmt.Errorf("bench artifact %s: cascade at load %v won by backend %q, which has no feasible standalone point there",
				a.Experiment, rc.Load, rc.Winner)
		}
		if bound := benchCascadeOverheadFactor*won + benchCascadeSlackUs; rc.WallUs > bound {
			return fmt.Errorf("bench artifact %s: cascade wall %dus at load %v exceeds overhead bound %dus (winner %s standalone %dus)",
				a.Experiment, rc.WallUs, rc.Load, bound, rc.Winner, won)
		}
	}
	return nil
}

// validateAttrib checks the optional attribution section.
func (a *BenchArtifact) validateAttrib() error {
	if at := a.Attrib; at != nil {
		switch {
		case at.Frames < 0 || at.BoundChecked < 0 || at.BoundMisses < 0:
			return fmt.Errorf("bench artifact %s: negative attrib counters %+v",
				a.Experiment, *at)
		case at.BoundMisses > at.BoundChecked:
			return fmt.Errorf("bench artifact %s: %d bound misses out of %d checked",
				a.Experiment, at.BoundMisses, at.BoundChecked)
		case at.Frames == 0 && at.BoundChecked == 0:
			return fmt.Errorf("bench artifact %s: empty attrib section", a.Experiment)
		}
	}
	return nil
}
