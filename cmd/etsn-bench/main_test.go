package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"etsn/internal/experiments"
)

func TestRunHeadline(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "headline", "-duration", "300ms",
		"-bench-dir", t.TempDir()}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"E-TSN", "PERIOD", "AVB", "jitter ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// promLine matches one sample of the text exposition: name, optional
// labels, and an integer value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?\d+$`)

// promTypeLine matches a # TYPE comment.
var promTypeLine = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)

// TestRunHeadlineInstrumented exercises the acceptance path: metrics file in
// valid Prometheus exposition, Chrome trace with the planner and simulation
// phases, and a validating bench artifact.
func TestRunHeadlineInstrumented(t *testing.T) {
	dir := t.TempDir()
	prom := filepath.Join(dir, "out.prom")
	trace := filepath.Join(dir, "out.trace.json")
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "headline", "-duration", "400ms",
		"-metrics", prom, "-trace-phases", trace, "-bench-dir", dir}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}

	data, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if promTypeLine.MatchString(line) {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line %d is not valid exposition: %q", i+1, line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("metrics file has no samples")
	}
	for _, want := range []string{"etsn_sim_events_total", "etsn_core_solves_total", "etsn_sim_latency_ns_bucket"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	tdata, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tdata, &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	got := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			got[e.Name] = true
		case "M":
			// Chrome metadata (thread_name): one per tracer lane, emitted
			// whenever -parallel (default GOMAXPROCS) exceeds one.
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	for _, want := range []string{"expand", "reserve", "solve", "simulate"} {
		if !got[want] {
			t.Errorf("trace missing phase %q (have %v)", want, got)
		}
	}

	art, err := experiments.LoadBenchArtifact(filepath.Join(dir, "BENCH_headline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := art.Validate(); err != nil {
		t.Fatalf("artifact invalid: %v", err)
	}
	if art.Sim.Events == 0 || art.Sim.EventsPerSec == 0 {
		t.Fatalf("artifact lacks throughput: %+v", art.Sim)
	}
}

func TestCheckBench(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "headline", "-duration", "300ms",
		"-bench-dir", dir, "-bench-name", "smoke"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	path := filepath.Join(dir, "BENCH_smoke.json")
	buf.Reset()
	if err := run([]string{"-check-bench", path}, &buf); err != nil {
		t.Fatalf("check-bench: %v", err)
	}
	if !strings.Contains(buf.String(), "valid bench artifact") {
		t.Fatalf("unexpected check output: %s", buf.String())
	}
	// A gutted artifact must fail validation.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"experiment":"x","wall_ms":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-check-bench", bad}, &buf); err == nil {
		t.Fatal("empty artifact passed validation")
	}
}

func TestRunFig15ChecksDeadlines(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "fig15", "-duration", "300ms",
		"-bench-dir", t.TempDir()}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "impact of ECT on TCT streams") {
		t.Fatal("missing fig15 table")
	}
}

// TestRunParallelStdoutIdentical pins the fan-out determinism contract at
// the CLI boundary: -parallel N must not change a byte of stdout.
func TestRunParallelStdoutIdentical(t *testing.T) {
	var seq, par bytes.Buffer
	if err := run([]string{"-experiment", "fig11", "-duration", "300ms",
		"-parallel", "1", "-bench-dir", t.TempDir()}, &seq); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	if err := run([]string{"-experiment", "fig11", "-duration", "300ms",
		"-parallel", "4", "-bench-dir", t.TempDir()}, &par); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if seq.String() != par.String() {
		t.Fatalf("stdout differs between -parallel 1 and -parallel 4:\n--- sequential\n%s--- parallel\n%s",
			seq.String(), par.String())
	}
}

// TestRunCompareSequentialArtifact checks the artifact records both wall
// times when -compare-sequential is given.
func TestRunCompareSequentialArtifact(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "headline", "-duration", "300ms",
		"-parallel", "3", "-compare-sequential", "-bench-dir", dir}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	art, err := experiments.LoadBenchArtifact(filepath.Join(dir, "BENCH_headline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := art.Validate(); err != nil {
		t.Fatalf("artifact invalid: %v", err)
	}
	if art.Parallel != 3 {
		t.Fatalf("artifact parallel = %d, want 3", art.Parallel)
	}
	if art.WallSequentialMs <= 0 {
		t.Fatalf("artifact wall_sequential_ms = %d, want > 0", art.WallSequentialMs)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "fig99"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRemovedFlagsRejected: the flags of the deleted engine and
// decomposition are unknown-flag errors; -parallel, the cell worker pool, is
// a different thing and stays.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, flag := range [][]string{{"-engine", "shard"}, {"-shards", "4"}, {"-decompose"}, {"-backend-compare"}} {
		var buf bytes.Buffer
		err := run(append([]string{"-experiment", "headline"}, flag...), &buf)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want an unknown-flag error", flag, err)
		}
	}
}

func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "all", "-duration", "200ms",
		"-bench-dir", t.TempDir()}, &buf); err != nil {
		t.Fatalf("run all: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"Headline", "Fig. 11", "Fig. 12", "Fig. 14", "Fig. 15", "Fig. 16",
		"four-way", "seamless redundancy", "scalability", "802.1AS", "Ablation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
