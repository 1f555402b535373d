// Command benchmark measures the whole E-TSN pipeline from outside: four
// workloads, end-to-end metrics from an untraced run, per-layer metrics
// from a traced run. See README.md in this directory and BENCHMARK.json at
// the repository root.
//
//	go run ./benchmark                                  every workload, untraced then traced
//	go run ./benchmark --workload dense-40 --trace 1    one run
//	go run ./benchmark --calibrate 10                   run-to-run spread of every end-to-end metric
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"etsn/internal/obs"
)

// pinnedProcs fixes GOMAXPROCS: the numbers in BENCHMARK.json were bounded
// on a 2-CPU sandbox, and before Go 1.25 the runtime ignores a container's
// CPU quota.
const pinnedProcs = 2

// An untraced run sets up at least minSetups times and keeps setting up
// until an eighth of the measuring window is spent or maxSetups is reached;
// setup_s is the median, so a cheap set-up is sampled often enough to be
// steady.
const (
	minSetups = 3
	maxSetups = 30
)

type metricDef struct{ name, unit, better string }

// The metric sets, equal by test to those BENCHMARK.json declares. Every
// workload reports every metric; a layer a workload does not reach reads 0.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"rss_mb_p50", "MB", "lower"},
}

var perLayerDefs = []metricDef{
	{"qcc.parse_ms_p50", "ms", "lower"},
	{"qcc.route_ms_p50", "ms", "lower"},
	{"qcc.export_ms_p50", "ms", "lower"},
	{"qcc.reimport_ms_p50", "ms", "lower"},
	{"qcc.doc_kb", "KB", "lower"},
	{"qcc.export_kb", "KB", "lower"},
	{"core.schedule_ms_p50", "ms", "lower"},
	{"core.schedule_share", "ratio", "lower"},
	{"core.alloc_mb_per_schedule", "MB", "lower"},
	{"core.expand_ms_p50", "ms", "lower"},
	{"core.reserve_ms_p50", "ms", "lower"},
	{"core.solve_ms_p50", "ms", "lower"},
	{"core.verify_ms_p50", "ms", "lower"},
	{"core.verify_share", "ratio", "lower"},
	{"core.expanded_streams", "count", "lower"},
	{"core.slots", "count", "lower"},
	{"gcl.entries", "count", "lower"},
	{"gcl.synthesize_ms_p50", "ms", "lower"},
	{"plan.streams_per_s", "1/s", "higher"},
	{"sched.build_ms_p50", "ms", "lower"},
	{"sim.run_ms_p50", "ms", "lower"},
	{"sim.share", "ratio", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.allocs_per_event", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.events", "count", "lower"},
	{"sim.delivered", "count", "higher"},
	{"sim.drops", "count", "lower"},
	{"service.accept_ms_p50", "ms", "lower"},
	{"service.run_ms_p50", "ms", "lower"},
	{"service.fetch_ms_p50", "ms", "lower"},
	{"service.job_ms_p50", "ms", "lower"},
	{"service.admit_nonshare_ms_p50", "ms", "lower"},
	{"service.admit_share_ms_p50", "ms", "lower"},
	{"service.journal_kb_per_op", "KB", "lower"},
	{"service.jobs", "count", "higher"},
	{"service.rejected", "count", "lower"},
	{"service.retried", "count", "lower"},
	{"core.backend.placer.solve_ms_mean", "ms", "lower"},
	{"core.backend.greedy.solve_ms_mean", "ms", "lower"},
	{"core.backend.tabu.solve_ms_mean", "ms", "lower"},
	{"core.backend.anneal.solve_ms_mean", "ms", "lower"},
	{"core.backend.smt-incremental.solve_ms_mean", "ms", "lower"},
	{"core.race.wins.placer", "count", "higher"},
	{"core.race.wins.greedy", "count", "higher"},
	{"core.race.wins.tabu", "count", "higher"},
	{"core.race.wins.anneal", "count", "higher"},
	{"core.race.wins.smt-incremental", "count", "higher"},
	{"core.race.cpu_waste_ratio", "ratio", "lower"},
	{"faults.incremental_ratio.nonshare", "ratio", "higher"},
	{"faults.incremental_ratio.share", "ratio", "higher"},
	{"obs.overhead_ratio", "ratio", "lower"},
	{"harness.self_share", "ratio", "lower"},
	{"harness.op_ms_p50", "ms", "lower"},
	{"harness.op_ms_p90", "ms", "lower"},
	{"harness.ops_per_s", "1/s", "higher"},
	{"harness.traced_ops", "count", "higher"},
}

// env is what a workload's set-up gets besides the seed.
type env struct {
	outDir string        // scratch space inside the checkout, for the journal
	reg    *obs.Registry // non-nil in a traced run
}

type workload struct {
	name, why string
	// rssOps is how many of each client's first ops the resident set is
	// sampled after: about 40 % of a window. The daemon keeps every plan
	// version, so its memory grows with the work done; sampled to the end
	// of the window, a faster daemon would report a larger resident set.
	rssOps int
	setup  func(seed int64, e env) (runner, error)
}

var workloads = []workload{
	{"corpus-2200", "44 cells x 50 TCT + 1 ECT, few slots on each of 620 links: solve-dominated, the placer-bookkeeping and allocation regime",
		40,
		func(seed int64, _ env) (runner, error) {
			doc := genCorpus(seed, 44)
			if err := checkPin("corpus-2200", seed, doc); err != nil {
				return nil, err
			}
			return newPlanRunner(doc)
		}},
	{"dense-40", "paper Sec. VI-C: 40 TCT at 75 % on 4 switches, 5-MTU ECT, ~80 slots per link: verifier- and slot-scan-dominated, bypasses placer bookkeeping",
		300,
		func(seed int64, _ env) (runner, error) {
			doc := genDense(seed)
			if err := checkPin("dense-40", seed, doc); err != nil {
				return nil, err
			}
			return newPlanRunner(doc)
		}},
	{"testbed-sim", "paper Sec. VI-B figure cell: plan + 4 s simulated under E-TSN, PERIOD and AVB: simulator-dominated, planner work must not move it",
		20,
		func(seed int64, _ env) (runner, error) {
			doc, be := genTestbed(seed)
			if err := checkPin("testbed-sim", seed, testbedParts(doc, be)...); err != nil {
				return nil, err
			}
			return newSimRunner(doc, be, simSeeds(seed))
		}},
	{"cncd-mixed", "daemon over loopback HTTP, journal fsync on, 2 clients: plan job + 4 non-sharing + 4 sharing admits per round: the only path through accept, journal, queue, race, commit",
		30,
		func(seed int64, e env) (runner, error) {
			for i := 0; i < cncdClients; i++ {
				if err := checkPin("cncd-mixed.tenant"+strconv.Itoa(i), seed, cncdParts(genCncd(seed, i))...); err != nil {
					return nil, err
				}
			}
			dir := filepath.Join(e.outDir, fmt.Sprintf("journal-%d-%d", os.Getpid(), time.Now().UnixNano()))
			return newCncdRunner(seed, dir, e.reg)
		}},
}

// testbedParts and cncdParts list the byte strings a pin covers.
func testbedParts(doc []byte, be []beFlow) [][]byte {
	return [][]byte{doc, []byte(fmt.Sprint(be))}
}

func cncdParts(plan []byte, admits []admitBody) [][]byte {
	parts := [][]byte{plan}
	for _, a := range admits {
		parts = append(parts, a.body)
	}
	return parts
}

func hashParts(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPin holds the generated inputs at the default seed to the recorded
// SHA-256, so no change to the repository can change the traffic unnoticed.
func checkPin(name string, seed int64, parts ...[]byte) error {
	if seed != defaultSeed {
		return nil
	}
	if got := hashParts(parts...); got != pins[name] {
		return fmt.Errorf("input %s at seed %d hashes to %s, pinned %s", name, seed, got, pins[name])
	}
	return nil
}

// report is one run's outcome; line is the JSON object the driver reads.
type report struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	samples   int
	firstErr  error
	values    metrics
}

func (r *report) defs() []metricDef {
	if r.traced {
		return perLayerDefs
	}
	return endToEndDefs
}

func (r *report) line() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, make(map[string]value)}
	for _, d := range r.defs() {
		out.Metrics[d.name] = value{r.values[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func (r *report) print() {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Printf("workload %s (%s): ops_attempted=%d ops_failed=%d samples=%d\n", r.workload, mode, r.attempted, r.failed, r.samples)
	if r.firstErr != nil {
		fmt.Printf("  first failure: %v\n", r.firstErr)
	}
	for _, d := range r.defs() {
		fmt.Printf("  %-44s %14.4f %s\n", d.name, r.values[d.name], d.unit)
	}
}

// runOne sets a workload up, measures it for the window and tears it down.
func runOne(w workload, seed int64, window time.Duration, traced bool, outDir string) (*report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	e := env{outDir: outDir}
	if traced {
		tr = newTracer()
		e.reg = tr.reg
	}
	var r runner
	var setups []float64
	for begin := time.Now(); ; r.close() {
		t0 := time.Now()
		var err error
		if r, err = w.setup(seed, e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if n := len(setups); traced || n >= maxSetups || n >= minSetups && time.Since(begin) >= window/8 {
			break
		}
	}
	defer r.close()

	res := measure(r, window, tr, w.rssOps)
	rep := &report{workload: w.name, traced: traced, attempted: res.attempted, failed: res.failed,
		samples: len(res.samples), firstErr: res.firstErr}
	if !traced {
		rep.values = res.endToEnd(quantile(setups, 0.5))
		return rep, nil
	}
	rep.values = metrics{}
	r.layers(rep.values, res)
	if err := tr.writeChrome(filepath.Join(outDir, w.name+".trace.json")); err != nil {
		return nil, err
	}
	return rep, nil
}

// child runs one workload in a process of its own and returns its metrics.
func child(name string, seed int64, seconds int, trace int) (map[string]float64, bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var parsed struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
		return nil, false, fmt.Errorf("%s: no result line (%v): %w", name, runErr, err)
	}
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	values := make(map[string]float64)
	for k, v := range parsed.Metrics {
		values[k] = v.Value
	}
	return values, parsed.Correct && runErr == nil, nil
}

// calibrate runs every selected workload n times untraced, each time on
// another seed, and prints for each end-to-end metric the interquartile
// range of its values as a share of their median, and the bound that
// spread asks for: three times it, at least 0.05, at most the contract's
// cap of 0.25.
func calibrate(selected []workload, seed int64, seconds, n int) bool {
	ok := true
	for _, w := range selected {
		series := make(map[string][]float64)
		for i := 0; i < n; i++ {
			values, good, err := child(w.name, seed+int64(i), seconds, 0)
			if err != nil || !good {
				fmt.Fprintf(os.Stderr, "calibrate %s seed %d: failed: %v\n", w.name, seed+int64(i), err)
				ok = false
				continue
			}
			for k, v := range values {
				series[k] = append(series[k], v)
			}
		}
		fmt.Printf("calibration %s (%d runs)\n", w.name, n)
		for _, d := range endToEndDefs {
			v := series[d.name]
			med := quantile(v, 0.5)
			spread := 0.0
			if med != 0 {
				spread = (quantile(v, 0.75) - quantile(v, 0.25)) / med
			}
			fmt.Printf("  %-20s median %12.4f %-4s spread %.4f  (bound >= %.2f)\n", d.name, med, d.unit, spread, min(0.25, max(0.05, 3*spread)))
		}
	}
	return ok
}

func main() {
	name := flag.String("workload", "", "workload to run; empty runs all of them, each in its own process")
	seed := flag.Int64("seed", defaultSeed, "seed every input is generated from")
	seconds := flag.Int("seconds", 25, "length of the measuring window")
	trace := flag.Int("trace", 0, "1 records a span per layer call and prints per-layer metrics; 0 prints end-to-end metrics")
	calibrateRuns := flag.Int("calibrate", 0, "run each workload this many times on consecutive seeds and print every end-to-end metric's spread")
	flag.Parse()
	runtime.GOMAXPROCS(pinnedProcs)

	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
			os.Exit(2)
		}
	}

	switch {
	case *calibrateRuns > 0:
		if !calibrate(selected, *seed, *seconds, *calibrateRuns) {
			os.Exit(1)
		}
	case *name == "":
		ok := true
		for _, w := range workloads {
			for _, tr := range []int{0, 1} {
				_, good, err := child(w.name, *seed, *seconds, tr)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
				ok = ok && good && err == nil
			}
		}
		if !ok {
			fmt.Println("FAIL: at least one workload failed a check")
			os.Exit(1)
		}
	default:
		rep, err := runOne(selected[0], *seed, time.Duration(*seconds)*time.Second, *trace == 1, filepath.Join("benchmark", "out"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rep.print()
		fmt.Println(rep.line())
		if rep.failed != 0 {
			os.Exit(1)
		}
	}
}
