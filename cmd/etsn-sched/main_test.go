package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"etsn/internal/core"
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

func TestRunProducesDeployment(t *testing.T) {
	cfg := writeConfig(t)
	out := filepath.Join(t.TempDir(), "deploy.json")
	if err := run([]string{"-config", cfg, "-out", out, "-quiet"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	for _, key := range []string{"hyperperiod_us", "schedule", "gcls", "backend"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("missing key %q", key)
		}
	}
}

func TestRunMissingConfig(t *testing.T) {
	if err := run([]string{}); err == nil || !strings.Contains(err.Error(), "config") {
		t.Fatalf("err = %v, want missing -config", err)
	}
}

// TestRemovedFlagsRejected: the flags of the deleted decomposition and SMT
// portfolio are unknown-flag errors, not silently accepted no-ops.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, flag := range [][]string{{"-decompose"}, {"-parallel", "4"}} {
		err := run(append([]string{"-config", writeConfig(t), "-quiet"}, flag...))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want an unknown-flag error", flag, err)
		}
	}
}

func TestRunBadConfigPath(t *testing.T) {
	if err := run([]string{"-config", "/does/not/exist.json", "-quiet"}); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestRunInfeasibleConfig(t *testing.T) {
	bad := strings.Replace(testConfig, `"max_latency_us": 744`, `"max_latency_us": 1`, 1)
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", path, "-quiet"}); err == nil {
		t.Fatal("expected scheduling error")
	}
}

func TestRunGCLText(t *testing.T) {
	cfg := writeConfig(t)
	out := filepath.Join(t.TempDir(), "gcl.txt")
	if err := run([]string{"-config", cfg, "-out", out, "-quiet", "-gcl"}); err != nil {
		t.Fatalf("run -gcl: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "port D1->SW1") {
		t.Fatalf("missing gate table:\n%s", data)
	}
}

func TestRunVerboseAndInstrumented(t *testing.T) {
	cfg := writeConfig(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "deploy.json")
	prom := filepath.Join(dir, "sched.prom")
	trace := filepath.Join(dir, "sched.trace.json")
	if err := run([]string{"-config", cfg, "-out", out, "-quiet", "-v",
		"-metrics", prom, "-trace-phases", trace}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"etsn_core_streams_total", "etsn_core_possibilities_total"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %s:\n%.400s", want, data)
		}
	}
	tdata, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"expand"`, `"reserve"`, `"solve"`} {
		if !strings.Contains(string(tdata), want) {
			t.Errorf("phase trace missing %s", want)
		}
	}
}

func TestRunVerboseSMTBackendReportsEffort(t *testing.T) {
	// Lighter than testConfig: the strict SMT formulation cannot wrap
	// slots past the period boundary the way the placer's virtual
	// timeline can, so give it headroom.
	smtCfg := strings.Replace(testConfig, `"payload_bytes": 4500`, `"payload_bytes": 1500`, 1)
	smtCfg = strings.Replace(smtCfg, `"options": {"n_prob": 5}`,
		`"options": {"n_prob": 2, "backend": "smt"}`, 1)
	path := filepath.Join(t.TempDir(), "smt.json")
	if err := os.WriteFile(path, []byte(smtCfg), 0o644); err != nil {
		t.Fatal(err)
	}
	prom := filepath.Join(t.TempDir(), "smt.prom")
	out := filepath.Join(t.TempDir(), "deploy.json")
	if err := run([]string{"-config", path, "-out", out, "-quiet", "-v", "-metrics", prom}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"etsn_smt_propagations_total", "etsn_smt_solves_total", "etsn_smt_theory_checks_total"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("SMT metrics missing %s:\n%.600s", want, data)
		}
	}
}

// TestExitCodes pins the machine-readable exit-code mapping: the daemon's
// HTTP statuses and these process exit codes come from the same
// classification, so scripts and the service can never disagree.
func TestExitCodes(t *testing.T) {
	writeTo := func(doc string) string {
		path := filepath.Join(t.TempDir(), "c.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Feasible: exit 0.
	if err := run([]string{"-config", writeConfig(t), "-quiet", "-out", os.DevNull}); err != nil {
		t.Fatalf("feasible run: %v", err)
	}

	// Invalid input (unroutable talker): exit 2.
	invalid := strings.Replace(testConfig, `"talker": "D1"`, `"talker": "D9"`, 1)
	err := run([]string{"-config", writeTo(invalid), "-quiet", "-out", os.DevNull})
	if got := service.Classify(err).ExitCode(); got != 2 {
		t.Fatalf("invalid config: exit %d (%v), want 2", got, err)
	}

	// Malformed JSON: exit 2.
	err = run([]string{"-config", writeTo(`{"network":`), "-quiet", "-out", os.DevNull})
	if got := service.Classify(err).ExitCode(); got != 2 {
		t.Fatalf("malformed config: exit %d (%v), want 2", got, err)
	}

	// Infeasible deadline: exit 3.
	infeasible := strings.Replace(testConfig, `"max_latency_us": 744`, `"max_latency_us": 2`, 1)
	err = run([]string{"-config", writeTo(infeasible), "-quiet", "-out", os.DevNull})
	if got := service.Classify(err).ExitCode(); got != 3 {
		t.Fatalf("infeasible config: exit %d (%v), want 3", got, err)
	}

	// Missing file: exit 1 (internal/environmental).
	err = run([]string{"-config", "/does/not/exist.json", "-quiet"})
	if got := service.Classify(err).ExitCode(); got != 1 {
		t.Fatalf("missing file: exit %d (%v), want 1", got, err)
	}

	// Usage errors are invalid input: exit 2.
	for _, args := range [][]string{
		{"-quiet"}, // missing -config
		{"-config", writeConfig(t), "-nope"},
		{"-config", writeConfig(t), "-backend", "anneal"},
	} {
		err := run(args)
		if got := service.Classify(err).ExitCode(); got != 2 {
			t.Errorf("%v: exit %d (%v), want 2", args, got, err)
		}
	}
}

// TestExitCodeTimeout pins exit 4 for budget exhaustion exactly as Compute
// surfaces it (wrapped), including the precedence rule: a budget error that
// wraps a scheduling failure is a timeout, never "infeasible".
func TestExitCodeTimeout(t *testing.T) {
	err := fmt.Errorf("cnc scheduling: %w",
		fmt.Errorf("smt: %w: wall clock exceeded", core.ErrBudget))
	if got := service.Classify(err).ExitCode(); got != 4 {
		t.Fatalf("budget error: exit %d, want 4", got)
	}
	both := fmt.Errorf("%w after partial search: %w", core.ErrBudget, core.ErrInfeasible)
	if got := service.Classify(both).ExitCode(); got != 4 {
		t.Fatalf("budget+infeasible: exit %d, want 4", got)
	}
}
