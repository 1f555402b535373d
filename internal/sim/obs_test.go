package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"etsn/internal/model"
	"etsn/internal/obs"
)

// TestTraceGoldenLine pins the JSONL trace schema byte-for-byte: routing the
// tracer through the shared obs.LineSink must not change a single byte of
// the capture format downstream analysis scripts parse.
func TestTraceGoldenLine(t *testing.T) {
	var buf bytes.Buffer
	tr := newTracer(&buf)
	f := &Frame{Stream: "s1", Seq: 7, Frag: 2, FragCount: 3, Priority: 5}
	tr.emit(1500*time.Nanosecond, "enqueue", f, model.LinkID{From: "D1", To: "SW1"})
	// The ">" is HTML-escaped because the pre-obs tracer used a default
	// json.Encoder; the shared sink must preserve that byte-for-byte.
	const golden = "{\"t_ns\":1500,\"kind\":\"enqueue\",\"stream\":\"s1\",\"seq\":7,\"frag\":2,\"link\":\"D1-\\u003eSW1\",\"priority\":5}\n"
	if got := buf.String(); got != golden {
		t.Fatalf("trace line changed:\n got  %q\n want %q", got, golden)
	}
}

// TestTraceStreamParses runs a real simulation with tracing on and checks
// every line is a well-formed TraceEvent with a known kind.
func TestTraceStreamParses(t *testing.T) {
	n, res, gcls, ect := etsnPlan(t)
	var buf bytes.Buffer
	s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
		ECT:      []ECTTraffic{{Stream: ect, Priority: model.PriorityECT}},
		Duration: 50 * time.Millisecond, Seed: 2, Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{"enqueue": true, "tx": true, "deliver": true, "drop": true, "lost": true}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines++
		var ev TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if !kinds[ev.Kind] {
			t.Fatalf("line %d: unknown kind %q", lines, ev.Kind)
		}
		if ev.Link == "" || ev.Stream == "" {
			t.Fatalf("line %d: missing link/stream: %+v", lines, ev)
		}
	}
	if lines < 100 {
		t.Fatalf("trace has %d lines, want a real event stream", lines)
	}
}

// TestResultsAccessorsReturnCopies guards against the aliasing bug where
// accessors handed out the internal slices: sorting or truncating a returned
// slice must not corrupt a later read.
func TestResultsAccessorsReturnCopies(t *testing.T) {
	r := newResults()
	r.hopTracing = true // recordHop only runs on traced runs
	r.record("s1", 3*time.Millisecond, 10*time.Millisecond)
	r.record("s1", 1*time.Millisecond, 20*time.Millisecond)
	r.recordDrop("s1", 5*time.Millisecond)
	r.recordLost("s1", 6*time.Millisecond)
	r.recordHop("s1", 0, 2*time.Millisecond)

	checks := []struct {
		name string
		get  func() []time.Duration
	}{
		{"Latencies", func() []time.Duration { return r.Latencies("s1") }},
		{"DeliveryTimes", func() []time.Duration { return r.DeliveryTimes("s1") }},
		{"DropTimes", func() []time.Duration { return r.DropTimes("s1") }},
		{"LossTimes", func() []time.Duration { return r.LossTimes("s1") }},
		{"HopLatencies", func() []time.Duration { return r.HopLatencies("s1", 0) }},
	}
	for _, c := range checks {
		before := c.get()
		if len(before) == 0 {
			t.Fatalf("%s: empty", c.name)
		}
		mutated := c.get()
		for i := range mutated {
			mutated[i] = -time.Hour
		}
		after := c.get()
		for i := range after {
			if after[i] != before[i] {
				t.Fatalf("%s: mutation through returned slice leaked into results (%v -> %v)",
					c.name, before[i], after[i])
			}
		}
	}
	if r.Latencies("missing") != nil {
		t.Fatal("absent stream should yield nil")
	}
}

// TestResultsConcurrentReaders exercises the documented contract that a
// Results is immutable after Run and safe for concurrent consumption (the
// experiment fan-out reads cells from several workers). Run under -race.
func TestResultsConcurrentReaders(t *testing.T) {
	n, res, gcls, ect := etsnPlan(t)
	s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
		ECT:      []ECTTraffic{{Stream: ect, Priority: model.PriorityECT}},
		Duration: 50 * time.Millisecond, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := len(r.Latencies(ect.ID))
	if want == 0 {
		t.Fatal("no deliveries to read")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if got := len(r.Latencies(ect.ID)); got != want {
					panic("latency count changed under concurrent readers")
				}
				r.Streams()
				r.DroppedStreams()
				r.DeliveryRatio(ect.ID)
				r.TotalDrops()
				r.DeliveryTimes(ect.ID)
			}
		}()
	}
	wg.Wait()
}

// TestSimMetricsPopulated checks the simulator's registry instrumentation:
// event totals, throughput, delivery counts, latency histogram, per-port
// gate opens and queue high-water marks.
func TestSimMetricsPopulated(t *testing.T) {
	n, res, gcls, ect := etsnPlan(t)
	reg := obs.NewRegistry()
	s, err := New(Config{Network: n, Schedule: res.Schedule, GCLs: gcls,
		ECT:      []ECTTraffic{{Stream: ect, Priority: model.PriorityECT}},
		Duration: 200 * time.Millisecond, Seed: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v := reg.CounterValue("etsn_sim_events_total"); v == 0 {
		t.Fatal("events_total = 0")
	}
	if v := reg.GaugeValue("etsn_sim_events_per_sec"); v <= 0 {
		t.Fatalf("events_per_sec = %d", v)
	}
	wantDelivered := int64(0)
	for _, id := range r.Streams() {
		wantDelivered += int64(r.Delivered(id))
	}
	if v := reg.CounterValue("etsn_sim_delivered_total"); v != wantDelivered {
		t.Fatalf("delivered_total = %d, results say %d", v, wantDelivered)
	}
	h, ok := reg.HistogramSnapshotFor("etsn_sim_latency_ns")
	if !ok || h.Count != wantDelivered {
		t.Fatalf("latency histogram = %+v (ok=%v), want %d samples", h, ok, wantDelivered)
	}
	if h.Min <= 0 || h.Quantile(0.99) < h.Quantile(0.5) {
		t.Fatalf("latency histogram implausible: %+v", h)
	}
	if v := reg.CounterValue("etsn_sim_gate_opens_total"); v == 0 {
		t.Fatal("no gate opens recorded")
	}
	hwm := false
	for _, m := range reg.Gather() {
		if m.Kind == obs.KindGauge && m.Value >= 1 &&
			len(m.Name) > len("etsn_sim_queue_depth_hwm") && m.Name[:len("etsn_sim_queue_depth_hwm")] == "etsn_sim_queue_depth_hwm" {
			hwm = true
		}
	}
	if !hwm {
		t.Fatal("no per-link queue-depth high-water mark >= 1")
	}
	if v := reg.CounterValue("etsn_sim_drops_total"); v != int64(r.TotalDrops()) {
		t.Fatalf("drops_total = %d, results say %d", v, r.TotalDrops())
	}
}

// TestSimDropCauseMetrics forces jam drops (a gate that never opens) and
// checks they land in the cause="jam" family.
func TestSimDropCauseMetrics(t *testing.T) {
	n, sched, gcls := jammedSecondHop(t)
	reg := obs.NewRegistry()
	s, err := New(Config{Network: n, Schedule: sched, GCLs: gcls,
		Duration: 10 * time.Millisecond, Seed: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	jam := reg.Counter(`etsn_sim_drops_total{cause="jam"}`).Value()
	if jam == 0 {
		t.Fatal("no jam drops counted")
	}
	if jam != int64(r.TotalDrops()) {
		t.Fatalf("jam drops %d != total drops %d", jam, r.TotalDrops())
	}
}
