package experiments

import (
	"fmt"
	"io"
	"time"

	"etsn/internal/sched"
	"etsn/internal/sim"
	"etsn/internal/stats"
)

// Fig11Loads are the network loads swept in Fig. 11.
var Fig11Loads = []float64{0.25, 0.50, 0.75}

// Fig11Cell is one (load, method) cell: the latency distribution of the ECT
// stream.
type Fig11Cell struct {
	Load    float64
	Method  sched.Method
	Summary stats.Summary
	CDF     []stats.CDFPoint
	// Conf scores the ECT deliveries against the method's analytic worst
	// case; Bounded is false for methods without one (AVB).
	Conf    sim.Conformance
	Bounded bool
}

// Fig11Result reproduces Fig. 11: CDFs of ECT latency for the three methods
// under 25/50/75% network load on the testbed topology.
type Fig11Result struct {
	Cells []Fig11Cell
}

// Fig11 runs the experiment. The load x method grid cells are independent,
// so they fan out over opts.Parallel workers; cells land in fixed
// load-major order either way.
func Fig11(opts RunOptions) (*Fig11Result, error) {
	scens := make([]*Scenario, len(Fig11Loads))
	for i, load := range Fig11Loads {
		scen, err := NewTestbedScenario(load, DefaultSeed)
		if err != nil {
			return nil, fmt.Errorf("fig11 load %v: %w", load, err)
		}
		scens[i] = scen
	}
	cells := make([]Fig11Cell, len(Fig11Loads)*len(AllMethods))
	err := runJobs(opts, len(cells), func(i int, o RunOptions) error {
		li, mi := i/len(AllMethods), i%len(AllMethods)
		scen, m, load := scens[li], AllMethods[mi], Fig11Loads[li]
		res, err := RunMethod(scen, m, o)
		if err != nil {
			return fmt.Errorf("fig11 load %v: %w", load, err)
		}
		if err := CheckDropAccounting(res.Raw, scen.TCT, scen.ECT); err != nil {
			return fmt.Errorf("fig11 load %v %v: %w", load, m, err)
		}
		conf, bounded := res.Conformance["ect"]
		cells[i] = Fig11Cell{
			Load:    load,
			Method:  m,
			Summary: res.ECT["ect"],
			CDF:     stats.CDF(res.ECTSamples["ect"], 20),
			Conf:    conf,
			Bounded: bounded,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig11Result{Cells: cells}, nil
}

// Cell returns the cell for a load/method pair.
func (r *Fig11Result) Cell(load float64, m sched.Method) (Fig11Cell, bool) {
	for _, c := range r.Cells {
		if c.Load == load && c.Method == m {
			return c, true
		}
	}
	return Fig11Cell{}, false
}

// WriteTable renders the figure's series as text.
func (r *Fig11Result) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "Fig. 11 — ECT latency CDFs by method and network load (testbed topology)")
	for _, load := range Fig11Loads {
		fmt.Fprintf(w, "network load %.0f%%:\n", load*100)
		for _, m := range AllMethods {
			c, ok := r.Cell(load, m)
			if !ok {
				continue
			}
			printSummaryRow(w, m.String(), c.Summary)
			fmt.Fprintf(w, "    conformance: %s\n", fmtConformance(c.Conf, c.Bounded))
			fmt.Fprintf(w, "    CDF: ")
			for _, p := range c.CDF {
				fmt.Fprintf(w, "%.0f%%@%s ", p.Fraction*100, shortDur(p.Latency))
			}
			fmt.Fprintln(w)
		}
	}
}

func shortDur(d time.Duration) string {
	return fmt.Sprintf("%.0fus", float64(d)/float64(time.Microsecond))
}
