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
// skew them. Each scenario's expansion cache is warmed by an untimed placer
// run first, so every timed wall is a solve time, not an ECT-expansion
// time.
func Backends(opts RunOptions) (*BackendsResult, error) {
	opts = opts.withDefaults()
	out := &BackendsResult{Timeout: BackendsTimeout}
	for _, load := range Fig11Loads {
		scen, err := NewTestbedScenario(load, DefaultSeed)
		if err != nil {
			return nil, fmt.Errorf("backends load %v: %w", load, err)
		}
		warm := RunOptions{Seed: opts.Seed} // no Obs: the warm-up run is not part of the measurement
		if pt, _ := solveBackendPoint(scen, core.BackendPlacer, BackendsTimeout, warm); !pt.Feasible {
			return nil, fmt.Errorf("backends load %v: warm-up placer solve failed: %s", load, pt.Err)
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

// BackendComparison aggregates one backend over a scenario grid: how many
// scenarios it closed with a verifier-clean plan, and its total solve wall.
// This is the per-backend comparison column the fig11/fig14 tables gain
// under RunOptions.BackendCompare.
type BackendComparison struct {
	Backend string
	// Solved counts scenarios closed with a feasible, verifier-clean plan.
	Solved int
	// Cells is the scenario count (Solved/Cells is the schedulable ratio).
	Cells int
	// WallUs is the total solve wall across the grid, microseconds.
	WallUs int64
}

// CompareBackends solves every scenario once per backend of the default
// cascade, sequentially (walls are measurements).
func CompareBackends(scens []*Scenario, opts RunOptions) []BackendComparison {
	order := core.DefaultCascade()
	rows := make([]BackendComparison, 0, len(order))
	for _, b := range order {
		row := BackendComparison{Backend: b.String(), Cells: len(scens)}
		for _, scen := range scens {
			pt, _ := solveBackendPoint(scen, b, BackendsTimeout, opts)
			if pt.Feasible && pt.Verified {
				row.Solved++
			}
			row.WallUs += pt.WallUs
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteBackendComparison renders a comparison section. Callers keep it out
// of the byte-identity-gated main tables: wall times vary run to run.
func WriteBackendComparison(w io.Writer, title string, rows []BackendComparison) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %-16s %-14s %s\n", "backend", "schedulable", "solve wall")
	for _, row := range rows {
		fmt.Fprintf(w, "  %-16s %d/%-12d %s\n", row.Backend, row.Solved, row.Cells, fmtWallUs(row.WallUs))
	}
}
