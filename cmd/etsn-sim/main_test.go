package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"etsn/internal/sched"
	"etsn/internal/service"
)

const testConfig = `{
  "network": {
    "devices": ["D1", "D2", "D3"],
    "switches": ["SW1"],
    "links": [
      {"a": "D1", "b": "SW1", "bandwidth_bps": 100000000},
      {"a": "D2", "b": "SW1", "bandwidth_bps": 100000000},
      {"a": "D3", "b": "SW1", "bandwidth_bps": 100000000}
    ]
  },
  "streams": [
    {"id": "s1", "talker": "D1", "listener": "D3", "type": "time-triggered",
     "period_us": 620, "max_latency_us": 744, "payload_bytes": 4500, "share": true},
    {"id": "s2", "talker": "D2", "listener": "D3", "type": "event-triggered",
     "period_us": 620, "max_latency_us": 620, "payload_bytes": 1500}
  ],
  "options": {"n_prob": 5}
}`

func writeConfig(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, []byte(testConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllMethods(t *testing.T) {
	cfg := writeConfig(t)
	for _, method := range []string{"etsn", "period", "avb", "cqf"} {
		if err := run([]string{"-config", cfg, "-method", method, "-duration", "50ms"}); err != nil {
			t.Fatalf("method %s: %v", method, err)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	cfg := writeConfig(t)
	if err := run([]string{"-config", cfg, "-duration", "50ms", "-json"}); err != nil {
		t.Fatalf("run -json: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cfg := writeConfig(t)
	if err := run([]string{"-config", cfg, "-method", "teleport"}); err == nil ||
		!strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("bad method: %v", err)
	}
	if err := run([]string{"-method", "etsn"}); err == nil {
		t.Fatal("missing config accepted")
	}
	if err := run([]string{"-config", "/does/not/exist"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestParseMethod(t *testing.T) {
	cases := map[string]sched.Method{
		"etsn": sched.MethodETSN, "E-TSN": sched.MethodETSN, "e-tsn": sched.MethodETSN,
		"period": sched.MethodPERIOD, "PERIOD": sched.MethodPERIOD,
		"avb": sched.MethodAVB, "AVB": sched.MethodAVB,
		"cqf": sched.MethodCQF, "CQF": sched.MethodCQF,
	}
	for name, want := range cases {
		got, err := parseMethod(name)
		if err != nil || got != want {
			t.Errorf("parseMethod(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseMethod("x"); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestRunTrace(t *testing.T) {
	cfg := writeConfig(t)
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"-config", cfg, "-duration", "20ms", "-trace", trace}); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"kind\":\"deliver\"") {
		t.Fatalf("trace missing deliveries:\n%.200s", data)
	}
}

func TestRunAttribOutputs(t *testing.T) {
	cfg := writeConfig(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	lanes := filepath.Join(dir, "lanes.json")
	if err := run([]string{"-config", cfg, "-duration", "50ms",
		"-attrib", "-trace-hops", "-trace", trace, "-trace-lanes", lanes}); err != nil {
		t.Fatalf("run -attrib: %v", err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"kind\":\"attrib\"", "\"kind\":\"slack\"", "queue_ns"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("trace missing %s:\n%.200s", want, data)
		}
	}
	ldata, err := os.ReadFile(lanes)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ldata), "traceEvents") || !strings.Contains(string(ldata), "\"tx\"") {
		t.Fatalf("lane file incomplete:\n%.200s", ldata)
	}
	// -trace-lanes without -attrib has nothing to render and must say so.
	if err := run([]string{"-config", cfg, "-duration", "20ms", "-trace-lanes", lanes}); err == nil ||
		!strings.Contains(err.Error(), "-attrib") {
		t.Fatalf("lanes without attrib: %v", err)
	}
}

func TestRunMetricsAndPhases(t *testing.T) {
	cfg := writeConfig(t)
	dir := t.TempDir()
	prom := filepath.Join(dir, "out.prom")
	trace := filepath.Join(dir, "phases.trace.json")
	if err := run([]string{"-config", cfg, "-duration", "50ms",
		"-metrics", prom, "-trace-phases", trace}); err != nil {
		t.Fatalf("run -metrics: %v", err)
	}
	data, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"etsn_sim_events_total", "etsn_sim_delivered_total", "etsn_core_streams_total"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %s:\n%.400s", want, data)
		}
	}
	tdata, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"simulate"`, `"expand"`, `"traceEvents"`} {
		if !strings.Contains(string(tdata), want) {
			t.Errorf("phase trace missing %s", want)
		}
	}
}

func TestRunMetricsJSONFormat(t *testing.T) {
	cfg := writeConfig(t)
	out := filepath.Join(t.TempDir(), "metrics.json")
	if err := run([]string{"-config", cfg, "-duration", "20ms", "-metrics", out}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if doc.Counters["etsn_sim_events_total"] == 0 {
		t.Fatal("JSON metrics missing event count")
	}
}

func TestRunDashHistoryRequiresDash(t *testing.T) {
	cfg := writeConfig(t)
	err := run([]string{"-config", cfg, "-duration", "50ms", "-dash-history", "x.jsonl"})
	if err == nil || !strings.Contains(err.Error(), "-dash-history requires -dash") {
		t.Fatalf("want -dash-history guard, got %v", err)
	}
}

// TestExitCodes pins etsn-sim's exit codes to the classes etsn-sched and the
// daemon use (service.Classify): every failure used to exit 1.
func TestExitCodes(t *testing.T) {
	writeTo := func(doc string) string {
		path := filepath.Join(t.TempDir(), "c.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	infeasible := strings.Replace(testConfig, `"max_latency_us": 744`, `"max_latency_us": 2`, 1)
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"feasible", []string{"-config", writeConfig(t), "-duration", "20ms"}, 0},
		{"bad duration", []string{"-config", writeConfig(t), "-duration", "0s"}, 2},
		{"unknown method", []string{"-config", writeConfig(t), "-method", "teleport"}, 2},
		{"unknown backend", []string{"-config", writeConfig(t), "-backend", "anneal"}, 2},
		{"malformed config", []string{"-config", writeTo(`{"network":`)}, 2},
		{"infeasible config", []string{"-config", writeTo(infeasible), "-duration", "20ms"}, 3},
		{"missing file", []string{"-config", "/does/not/exist.json"}, 1},
		// Usage errors are invalid input, and flag combinations are
		// rejected before anything is planned: the infeasible
		// configuration never gets as far as exit 3.
		{"missing -config", nil, 2},
		{"unknown flag", []string{"-config", writeConfig(t), "-nope"}, 2},
		{"-trace-lanes without -attrib", []string{"-config", writeTo(infeasible), "-trace-lanes", os.DevNull}, 2},
		{"-dash-history without -dash", []string{"-config", writeTo(infeasible), "-dash-history", os.DevNull}, 2},
	} {
		err := run(tc.args)
		if got := service.Classify(err).ExitCode(); got != tc.want {
			t.Errorf("%s: exit %d (%v), want %d", tc.name, got, err, tc.want)
		}
	}
}

// TestRemovedFlagsRejected: the flags of the deleted engine, decomposition
// and portfolio are unknown-flag errors, not silently accepted no-ops.
func TestRemovedFlagsRejected(t *testing.T) {
	cfg := writeConfig(t)
	for _, flag := range [][]string{{"-engine", "shard"}, {"-shards", "4"}, {"-decompose"}, {"-parallel", "4"}} {
		err := run(append([]string{"-config", cfg, "-duration", "20ms"}, flag...))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want an unknown-flag error", flag, err)
		}
	}
}
