package experiments

import (
	"fmt"
	"io"
	"time"

	"etsn/internal/core"
)

// BackendsTimeout bounds each standalone backend solve (and each cascade) in
// the backends experiment. The exact solvers can burn unbounded time on the
// full-size testbed instances; the greedy placer gives up when the budget
// runs out. Two seconds is far above any backend's feasible solve time on the
// fig11 grid, so a timeout here genuinely means "did not finish".
const BackendsTimeout = 2 * time.Second

// BackendsResult is the cross-backend benchmark over the Fig. 11 load grid:
// every backend of the default cascade solved standalone (wall time,
// feasibility, verifier verdict) plus one cascade per load.
type BackendsResult struct {
	Timeout  time.Duration
	Points   []BenchBackendPoint
	Cascades []BenchBackendCascade
}

// solveBackendPoint runs one standalone backend solve against a scenario's
// scheduling problem, timing the wall and verifying any plan produced. The
// returned winner is the backend that actually produced the plan (relevant
// for the cascade, where it names the stage that won).
func solveBackendPoint(scen *Scenario, b core.Backend, timeout time.Duration, opts RunOptions) (BenchBackendPoint, string) {
	p := scen.Problem()
	p.Obs = opts.Obs
	p.Phases = opts.Phases
	p.Backend = b
	p.Timeout = timeout
	start := time.Now()
	res, err := core.Schedule(p.Core())
	pt := BenchBackendPoint{
		Load:    scen.Load,
		Backend: b.String(),
		WallUs:  maxI64(time.Since(start).Microseconds(), 1),
	}
	if err != nil {
		pt.Err = err.Error()
		return pt, ""
	}
	pt.Feasible = true
	pt.Slots = res.Schedule.NumSlots()
	pt.Verified = len(core.Verify(scen.Network, res)) == 0
	return pt, res.BackendUsed.String()
}

// Backends runs the cross-backend benchmark on the Fig. 11 testbed load
// grid. Solves run strictly sequentially even under -parallel: the walls
// are the measurement, and concurrent solves contending for cores would
// skew them.
func Backends(opts RunOptions) (*BackendsResult, error) {
	opts = opts.withDefaults()
	out := &BackendsResult{Timeout: BackendsTimeout}
	for _, load := range Fig11Loads {
		scen, err := NewTestbedScenario(load, DefaultSeed)
		if err != nil {
			return nil, fmt.Errorf("backends load %v: %w", load, err)
		}
		for _, b := range core.DefaultCascade() {
			pt, _ := solveBackendPoint(scen, b, BackendsTimeout, opts)
			out.Points = append(out.Points, pt)
		}
		rp, winner := solveBackendPoint(scen, core.BackendCascade, BackendsTimeout, opts)
		if !rp.Feasible {
			return nil, fmt.Errorf("backends load %v: cascade failed: %s", load, rp.Err)
		}
		out.Cascades = append(out.Cascades, BenchBackendCascade{
			Load:     load,
			WallUs:   rp.WallUs,
			Winner:   winner,
			Verified: rp.Verified,
		})
	}
	return out, nil
}

// Bench converts the result into the artifact section.
func (r *BackendsResult) Bench() *BenchBackends {
	return &BenchBackends{
		TimeoutMs: r.Timeout.Milliseconds(),
		Points:    r.Points,
		Cascades:  r.Cascades,
	}
}

// WriteTable renders the benchmark. Wall times are real measurements, so
// unlike the figure tables this output is not byte-stable across runs.
func (r *BackendsResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Scheduler backends — standalone solves and cascade (testbed, fig11 load grid, timeout %v)\n", r.Timeout)
	for _, load := range Fig11Loads {
		fmt.Fprintf(w, "network load %.0f%%:\n", load*100)
		for _, pt := range r.Points {
			if pt.Load != load {
				continue
			}
			switch {
			case !pt.Feasible:
				fmt.Fprintf(w, "  %-16s %-12s gave up: %s\n", pt.Backend, fmtWallUs(pt.WallUs), pt.Err)
			case !pt.Verified:
				fmt.Fprintf(w, "  %-16s %-12s UNVERIFIED PLAN (%d slots)\n", pt.Backend, fmtWallUs(pt.WallUs), pt.Slots)
			default:
				fmt.Fprintf(w, "  %-16s %-12s ok, %d slots\n", pt.Backend, fmtWallUs(pt.WallUs), pt.Slots)
			}
		}
		for _, rc := range r.Cascades {
			if rc.Load != load {
				continue
			}
			fmt.Fprintf(w, "  %-16s %-12s winner=%s verified=%v\n", "cascade", fmtWallUs(rc.WallUs), rc.Winner, rc.Verified)
		}
	}
}

// fmtWallUs renders a microsecond wall time compactly.
func fmtWallUs(us int64) string {
	return (time.Duration(us) * time.Microsecond).Round(time.Microsecond).String()
}
