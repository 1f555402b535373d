package main

// The measuring loop, the span recorder and the statistics shared by all
// workloads. The harness times the program from outside: every call into a
// layer's public function is wrapped in a span by the workload's op.

import (
	"bufio"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"etsn/internal/obs"
)

// span is one timed call: name, start, end, the span that caused it, the op
// it belongs to, and the client (trace thread) that ran it.
type span struct {
	name           string
	startNs, endNs int64
	parent         int // index into tracer.spans; -1 for an op's root span
	op             int
	client         int
}

func (s span) dur() int64 { return s.endNs - s.startNs }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	opSeq  int
	// The registry and tracer the program already knows how to fill,
	// handed to it on traced ops only.
	reg    *obs.Registry
	phases *obs.Tracer
	// phasesOffsetNs places the program tracer's time origin on ours.
	phasesOffsetNs int64
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now(), reg: obs.NewRegistry()}
	t.phases = obs.NewTracer()
	t.phasesOffsetNs = int64(time.Since(t.origin))
	return t
}

// opCtx carries one op's tracing state down into the workload. With a nil
// tracer (an untraced op) every method is a no-op.
type opCtx struct {
	tr     *tracer
	client int
	seq    int // the client's op counter, for input rotation
	op     int
	stack  []int
}

func (c *opCtx) traced() bool { return c.tr != nil }

// registry and phases are nil on untraced ops, which is how the program
// learns that observability is off.
func (c *opCtx) registry() *obs.Registry {
	if c.tr == nil {
		return nil
	}
	return c.tr.reg
}

func (c *opCtx) phases() *obs.Tracer {
	if c.tr == nil {
		return nil
	}
	return c.tr.phases
}

var noop = func() {}

// span opens a span under the innermost open one and returns its closer.
func (c *opCtx) span(name string) func() {
	if c.tr == nil {
		return noop
	}
	parent := -1
	if n := len(c.stack); n > 0 {
		parent = c.stack[n-1]
	}
	t := c.tr
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, op: c.op, client: c.client})
	t.mu.Unlock()
	c.stack = append(c.stack, idx)
	start := int64(time.Since(t.origin))
	return func() {
		end := int64(time.Since(t.origin))
		c.stack = c.stack[:len(c.stack)-1]
		t.mu.Lock()
		t.spans[idx].startNs, t.spans[idx].endNs = start, end
		t.mu.Unlock()
	}
}

// adoptProgramSpans folds the spans the program recorded into its own
// obs.Tracer under the harness span whose interval holds their midpoint.
// Only single-client workloads hand the program a tracer, so containment
// is unambiguous.
func (t *tracer) adoptProgramSpans() {
	for _, r := range t.phases.Spans() {
		s := span{name: "program." + r.Name, startNs: r.StartNs + t.phasesOffsetNs, parent: -1, op: -1}
		s.endNs = s.startNs + r.WallNs
		mid := s.startNs + r.WallNs/2
		for i, p := range t.spans { // innermost = shortest span holding the midpoint
			if p.startNs <= mid && mid < p.endNs && p.dur() >= s.dur() &&
				(s.parent < 0 || p.dur() < t.spans[s.parent].dur()) {
				s.parent, s.op, s.client = i, p.op, p.client
			}
		}
		if s.parent >= 0 {
			t.spans = append(t.spans, s)
		}
	}
}

// selfNs returns each span's self time: its duration minus the part its
// children cover (children of one span never overlap: one goroutine).
func (t *tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace_event JSON (chrome://tracing,
// Perfetto) through the repository's own lane writer: one thread per client,
// one complete event per span.
func (t *tracer) writeChrome(path string) error {
	self := t.selfNs()
	var lanes []obs.Lane
	for i, s := range t.spans {
		for s.client >= len(lanes) {
			lanes = append(lanes, obs.Lane{Track: "client " + strconv.Itoa(len(lanes))})
		}
		lanes[s.client].Spans = append(lanes[s.client].Spans, obs.LaneSpan{
			Name: s.name, StartNs: s.startNs, DurNs: s.dur(),
			Args: map[string]string{
				"id": strconv.Itoa(i), "parent": strconv.Itoa(s.parent), "op": strconv.Itoa(s.op),
				"self_us": strconv.FormatFloat(float64(self[i])/1e3, 'f', 3, 64),
			},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = obs.WriteLaneTrace(w, lanes)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runner is one workload, set up for one seed and ready to run ops.
type runner interface {
	// clients is the number of closed-loop callers.
	clients() int
	// op runs one operation, timed; an error counts the op as failed.
	op(c *opCtx) error
	// check verifies the outputs of the client's last op where that takes
	// work no caller of the program would do. It runs after every op,
	// outside the op's time, CPU and allocation accounting; an error
	// counts the op as failed.
	check(c *opCtx) error
	// layers adds the workload's own per-layer metrics (counts, sizes,
	// registry readings) after a traced run.
	layers(m metrics, res *result)
	// close stops everything the runner started and removes its files.
	close()
}

// metrics maps a metric name to its value; units come from BENCHMARK.json.
type metrics map[string]float64

type opSample struct {
	ms     float64
	traced bool
}

// result is what one measuring window produced.
type result struct {
	clients   int
	samples   []opSample
	attempted int
	failed    int
	firstErr  error
	// cpu and allocMB cover the ops only: what the checks between them
	// used is already taken out.
	cpu     time.Duration
	allocMB float64
	rssMB   []float64 // resident set after each of the first rssOps ops
	tr      *tracer
}

// measure runs the workload's clients in a closed loop for the window. In a
// traced run ops alternate traced and untraced, so the overhead ratio
// compares like with like inside one process. The resident set is sampled
// after each of every client's first rssOps ops.
func measure(r runner, window time.Duration, tr *tracer, rssOps int) *result {
	res := &result{tr: tr, clients: r.clients()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var checkCPU time.Duration
	var checkAlloc uint64
	runtime.GC()
	alloc0, cpu0 := heapAllocBytes(), processCPU()
	start := time.Now()
	for cl := 0; cl < res.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for seq := 0; time.Since(start) < window; seq++ {
				c := &opCtx{client: cl, seq: seq}
				if tr != nil && seq%2 == 0 {
					c.tr = tr
					tr.mu.Lock()
					c.op = tr.opSeq
					tr.opSeq++
					tr.mu.Unlock()
				}
				t0 := time.Now()
				end := c.span("op")
				err := r.op(c)
				end()
				ms := float64(time.Since(t0)) / 1e6

				// Only single-client workloads have checks that cost
				// anything, so these deltas are the check's alone.
				a0, c0 := heapAllocBytes(), processCPU()
				if err == nil {
					end = c.span("check")
					err = r.check(c)
					end()
				}
				a1, c1 := heapAllocBytes(), processCPU()

				mu.Lock()
				checkAlloc += a1 - a0
				checkCPU += c1 - c0
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				} else {
					res.samples = append(res.samples, opSample{ms: ms, traced: c.traced()})
				}
				if seq < rssOps {
					res.rssMB = append(res.rssMB, residentMB())
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	res.cpu = processCPU() - cpu0 - checkCPU
	res.allocMB = float64(heapAllocBytes()-alloc0-checkAlloc) / (1 << 20)
	if tr != nil {
		tr.adoptProgramSpans()
	}
	return res
}

func (res *result) opMs(traced bool) []float64 {
	var out []float64
	for _, s := range res.samples {
		if s.traced == traced {
			out = append(out, s.ms)
		}
	}
	return out
}

// endToEnd derives the end-to-end metrics of an untraced window.
func (res *result) endToEnd(setupS float64) metrics {
	ms := res.opMs(false)
	ops := float64(max(len(ms), 1))
	return metrics{
		"setup_s":         setupS,
		"op_ms_p50":       quantile(ms, 0.50),
		"cpu_ms_per_op":   float64(res.cpu) / 1e6 / ops,
		"alloc_mb_per_op": res.allocMB / ops,
		// The median, not the high-water mark: the peak of a garbage-
		// collected heap moved 4x as much from run to run.
		"rss_mb_p50": quantile(res.rssMB, 0.50),
	}
}

// spanStats derives the metrics every traced window has: per span name the
// median duration, and the shares of the op's wall.
func (res *result) spanStats(m metrics, names map[string]string) {
	tr := res.tr
	byName := make(map[string][]float64)
	var opWall, rootSelf int64
	incl := make(map[string]int64)
	self := tr.selfNs()
	for i, s := range tr.spans {
		byName[s.name] = append(byName[s.name], float64(s.dur())/1e6)
		incl[s.name] += s.dur()
		if s.name == "op" {
			opWall += s.dur()
			rootSelf += self[i]
		}
	}
	for spanName, metric := range names {
		m[metric] = quantile(byName[spanName], 0.50)
	}
	if opWall > 0 {
		m["core.schedule_share"] = float64(incl["core.schedule"]) / float64(opWall)
		m["core.verify_share"] = float64(incl["core.verify"]) / float64(opWall)
		m["sim.share"] = float64(incl["sim.run"]) / float64(opWall)
		m["harness.self_share"] = float64(rootSelf) / float64(opWall)
	}
	if un := quantile(res.opMs(false), 0.50); un > 0 {
		m["obs.overhead_ratio"] = quantile(res.opMs(true), 0.50) / un
	}
	m["harness.op_ms_p50"] = quantile(res.opMs(true), 0.50)
	all := append(res.opMs(true), res.opMs(false)...)
	m["harness.op_ms_p90"] = quantile(all, 0.90)
	// Closed loop: each client always has one op in flight, so throughput
	// is clients over mean latency, net of check time.
	if ms := mean(res.opMs(false)); ms > 0 {
		m["harness.ops_per_s"] = float64(res.clients) * 1e3 / ms
	}
	m["harness.traced_ops"] = float64(len(res.opMs(true)))
}

// quantile returns the q-quantile by linear interpolation; 0 when empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

// processCPU is user plus system time of this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMB reads the process's current resident set.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// heapAllocBytes is the cumulative bytes allocated on the heap, read
// without stopping the world.
func heapAllocBytes() uint64 {
	sample := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(sample)
	return sample[0].Value.Uint64()
}

// allocsDuring runs f and returns the heap bytes and objects it allocated.
// ReadMemStats stops the world, so only traced ops pay for it.
func allocsDuring(f func()) (mb float64, objects float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), float64(b.Mallocs - a.Mallocs)
}
