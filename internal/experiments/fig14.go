package experiments

import (
	"fmt"
	"io"

	"etsn/internal/sched"
	"etsn/internal/sim"
	"etsn/internal/stats"
)

// Fig14Loads and Fig14Lengths are the sweeps of Fig. 14: network load and
// ECT message length in MTUs.
var (
	Fig14Loads   = []float64{0.25, 0.50, 0.75}
	Fig14Lengths = []int{1, 2, 3, 4, 5}
)

// Fig14Cell is one (load, length, method) measurement.
type Fig14Cell struct {
	Load    float64
	Length  int
	Method  sched.Method
	Summary stats.Summary
	// Conf scores the ECT deliveries against the method's analytic worst
	// case; Bounded is false for methods without one (AVB).
	Conf    sim.Conformance
	Bounded bool
}

// Fig14Result reproduces Fig. 14 (a)-(f): ECT latency and jitter on the
// simulation topology, swept over network load and message length.
type Fig14Result struct {
	Cells []Fig14Cell
}

// Fig14 runs the full grid. With the default lengths x loads x methods this
// is 45 plan+simulate runs.
func Fig14(opts RunOptions) (*Fig14Result, error) {
	return Fig14Custom(Fig14Loads, Fig14Lengths, opts)
}

// Fig14Custom runs a restricted sweep (used by fast tests and ablations).
// Scenarios build up front; the load x length x method cells then fan out
// over opts.Parallel workers in fixed grid order.
func Fig14Custom(loads []float64, lengths []int, opts RunOptions) (*Fig14Result, error) {
	scens := make([]*Scenario, len(loads)*len(lengths))
	for li, load := range loads {
		for gi, length := range lengths {
			scen, err := NewSimulationScenario(load, length, 1, DefaultSeed)
			if err != nil {
				return nil, fmt.Errorf("fig14 load %v len %d: %w", load, length, err)
			}
			scens[li*len(lengths)+gi] = scen
		}
	}
	cells := make([]Fig14Cell, len(scens)*len(AllMethods))
	err := runJobs(opts, len(cells), func(i int, o RunOptions) error {
		si, mi := i/len(AllMethods), i%len(AllMethods)
		scen, m := scens[si], AllMethods[mi]
		load, length := loads[si/len(lengths)], lengths[si%len(lengths)]
		res, err := RunMethod(scen, m, o)
		if err != nil {
			return fmt.Errorf("fig14 load %v len %d: %w", load, length, err)
		}
		if err := CheckDropAccounting(res.Raw, scen.TCT, scen.ECT); err != nil {
			return fmt.Errorf("fig14 load %v len %d %v: %w", load, length, m, err)
		}
		conf, bounded := res.Conformance["ect"]
		cells[i] = Fig14Cell{
			Load:    load,
			Length:  length,
			Method:  m,
			Summary: res.ECT["ect"],
			Conf:    conf,
			Bounded: bounded,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig14Result{Cells: cells}, nil
}

// Cell returns one measurement.
func (r *Fig14Result) Cell(load float64, length int, m sched.Method) (Fig14Cell, bool) {
	for _, c := range r.Cells {
		if c.Load == load && c.Length == length && c.Method == m {
			return c, true
		}
	}
	return Fig14Cell{}, false
}

// WriteTable renders the (a)-(c) latency panels and (d)-(f) jitter panels.
func (r *Fig14Result) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "Fig. 14 — ECT latency (a-c) and jitter (d-f) vs load and message length")
	fmt.Fprintln(w, "(simulation topology: 4 switches, 12 devices, 40 TCT streams)")
	for _, load := range Fig14Loads {
		fmt.Fprintf(w, "network load %.0f%%:\n", load*100)
		fmt.Fprintf(w, "  %-8s", "len")
		for _, m := range AllMethods {
			fmt.Fprintf(w, "%-56s", m.String()+" avg/worst/jitter conformance")
		}
		fmt.Fprintln(w)
		for _, length := range Fig14Lengths {
			fmt.Fprintf(w, "  %d MTU   ", length)
			for _, m := range AllMethods {
				c, ok := r.Cell(load, length, m)
				if !ok {
					fmt.Fprintf(w, "%-56s", "-")
					continue
				}
				cell := fmt.Sprintf("%s/%s/%s %s",
					fmtDur(c.Summary.Mean), fmtDur(c.Summary.Max), fmtDur(c.Summary.StdDev),
					fmtConformance(c.Conf, c.Bounded))
				fmt.Fprintf(w, "%-56s", cell)
			}
			fmt.Fprintln(w)
		}
	}
}
