package qcc

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"etsn/internal/model"
)

// sampleConfig is the paper's Fig. 2 network with one sharing TCT stream
// and one ECT stream, as a JSON document.
const sampleConfig = `{
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
  "options": {"n_prob": 5, "backend": "placer"}
}`

func TestParseAndBuild(t *testing.T) {
	cfg, err := Parse([]byte(sampleConfig))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	n, err := cfg.BuildNetwork()
	if err != nil {
		t.Fatalf("BuildNetwork: %v", err)
	}
	if n.NumNodes() != 4 || n.NumLinks() != 6 {
		t.Fatalf("nodes=%d links=%d", n.NumNodes(), n.NumLinks())
	}
	p, err := cfg.BuildProblem()
	if err != nil {
		t.Fatalf("BuildProblem: %v", err)
	}
	if len(p.TCT) != 1 || len(p.ECT) != 1 {
		t.Fatalf("TCT=%d ECT=%d", len(p.TCT), len(p.ECT))
	}
	if p.TCT[0].ID != "s1" || !p.TCT[0].Share || p.TCT[0].Frames() != 3 {
		t.Fatalf("TCT = %+v", p.TCT[0])
	}
	if p.ECT[0].MinInterevent != 620*time.Microsecond {
		t.Fatalf("interevent = %v", p.ECT[0].MinInterevent)
	}
	if p.Opts.NProb != 5 {
		t.Fatalf("NProb = %d", p.Opts.NProb)
	}
}

func TestComputePipeline(t *testing.T) {
	cfg, err := Parse([]byte(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Compute(cfg)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if dep.Result == nil || len(dep.GCLs) == 0 {
		t.Fatal("incomplete deployment")
	}
	// The schedule must cover all three used links.
	if got := len(dep.Result.Schedule.Links()); got != 3 {
		t.Fatalf("links with slots = %d, want 3", got)
	}
}

func TestDeploymentExport(t *testing.T) {
	cfg, err := Parse([]byte(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Compute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exp := dep.Export()
	if exp.HyperperiodUs != 620 {
		t.Fatalf("hyperperiod = %d us", exp.HyperperiodUs)
	}
	if exp.Backend == "" || len(exp.Schedule) == 0 || len(exp.GCLs) == 0 {
		t.Fatalf("incomplete export: %+v", exp)
	}
	var total int64
	for _, e := range exp.GCLs[0].Entries {
		total += e.DurationNs
	}
	if total != exp.GCLs[0].CycleNs {
		t.Fatalf("entries sum %d != cycle %d", total, exp.GCLs[0].CycleNs)
	}
	var buf bytes.Buffer
	if err := dep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), "\"schedule\"") {
		t.Fatal("JSON missing schedule key")
	}
	if exp.GCLs[0].Entries[0].Gates == 0 && len(exp.GCLs[0].Entries) == 1 {
		t.Fatal("suspicious all-closed single entry")
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg, err := Parse([]byte(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	cfg2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(cfg2.Streams) != len(cfg.Streams) || cfg2.Options.NProb != cfg.Options.NProb {
		t.Fatal("round trip mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte("{nope")); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Parse garbage: %v", err)
	}
}

func TestBuildErrors(t *testing.T) {
	mutate := func(f func(*Config)) *Config {
		cfg, err := Parse([]byte(sampleConfig))
		if err != nil {
			t.Fatal(err)
		}
		f(cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  *Config
	}{
		{"unknown talker", mutate(func(c *Config) { c.Streams[0].Talker = "ghost" })},
		{"missing id", mutate(func(c *Config) { c.Streams[0].ID = "" })},
		{"bad type", mutate(func(c *Config) { c.Streams[0].Type = "sporadic" })},
		{"dup device", mutate(func(c *Config) { c.Network.Devices = append(c.Network.Devices, "D1") })},
		{"bad link", mutate(func(c *Config) { c.Network.Links[0].BandwidthBps = 0 })},
		{"disconnected", mutate(func(c *Config) { c.Network.Devices = append(c.Network.Devices, "D9") })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.cfg.BuildProblem(); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestBackendNames(t *testing.T) {
	for name, want := range map[string]string{
		"":                "auto",
		"auto":            "auto",
		"placer":          "placer",
		"greedy":          "greedy",
		"cascade":         "cascade",
		"race":            "cascade",
		"smt":             "smt",
		"smt-incremental": "smt-incremental",
	} {
		cfg := &Config{Options: SchedulerOptions{Backend: name}}
		opts, err := cfg.coreOptions()
		if err != nil {
			t.Fatalf("backend %q: %v", name, err)
		}
		if got := opts.Backend.String(); got != want {
			t.Errorf("backend %q -> %q, want %q", name, got, want)
		}
	}
	// Unknown (and removed) backends are rejected at configuration time,
	// with the valid names listed.
	for _, name := range []string{"quantum", "tabu", "anneal"} {
		cfg := &Config{Options: SchedulerOptions{Backend: name}}
		_, err := cfg.coreOptions()
		if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "auto|placer|greedy|smt|smt-incremental|cascade") {
			t.Fatalf("backend %q err = %v, want ErrBadConfig listing the valid names", name, err)
		}
	}
}

// TestRemovedOptionsStillParse: documents on disk carry the "decompose" and
// "portfolio" options this scheduler no longer has. Parse ignores unknown
// keys, so such a document plans to the same deployment, byte for byte, as
// one without them.
func TestRemovedOptionsStillParse(t *testing.T) {
	export := func(doc string) []byte {
		t.Helper()
		cfg, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		dep, err := Compute(cfg)
		if err != nil {
			t.Fatalf("Compute: %v", err)
		}
		var buf bytes.Buffer
		if err := dep.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	for _, backend := range []string{"placer", "cascade", "auto"} {
		plain := strings.Replace(sampleConfig, `"backend": "placer"`, `"backend": "`+backend+`"`, 1)
		old := strings.Replace(plain, `"n_prob": 5,`, `"n_prob": 5, "decompose": true, "portfolio": 4,`, 1)
		if old == plain {
			t.Fatal("fixture edit did not apply")
		}
		if !bytes.Equal(export(old), export(plain)) {
			t.Errorf("backend %s: a document with decompose/portfolio plans differently from one without", backend)
		}
	}
}

func TestSchedulerOptionsPlumbed(t *testing.T) {
	cfg, err := Parse([]byte(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Options.Spread = true
	cfg.Options.SharedReserves = true
	p, err := cfg.BuildProblem()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Opts.SpreadFrames || !p.Opts.SharedReserves {
		t.Fatalf("options not plumbed: %+v", p.Opts)
	}
	_ = model.StreamID("x")
}

func TestDeploymentRoundTrip(t *testing.T) {
	cfg, err := Parse([]byte(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Compute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseDeployment(&buf)
	if err != nil {
		t.Fatalf("ParseDeployment: %v", err)
	}
	gcls, err := exp.GCLPrograms()
	if err != nil {
		t.Fatalf("GCLPrograms: %v", err)
	}
	if len(gcls) != len(dep.GCLs) {
		t.Fatalf("ports = %d, want %d", len(gcls), len(dep.GCLs))
	}
	for lid, orig := range dep.GCLs {
		got := gcls[lid]
		if got == nil {
			t.Fatalf("missing port %s", lid)
		}
		if got.Cycle != orig.Cycle || len(got.Entries) != len(orig.Entries) {
			t.Fatalf("port %s mismatch", lid)
		}
		for i := range orig.Entries {
			if got.Entries[i] != orig.Entries[i] {
				t.Fatalf("port %s entry %d differs", lid, i)
			}
		}
	}
}

func TestParseDeploymentErrors(t *testing.T) {
	if _, err := ParseDeployment(strings.NewReader("{oops")); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("garbage: %v", err)
	}
	bad := `{"gcls":[{"link":"nolinkarrow","cycle_ns":1000,
		"entries":[{"duration_ns":1000,"gates":1}]}]}`
	exp, err := ParseDeployment(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.GCLPrograms(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad link id: %v", err)
	}
	short := `{"gcls":[{"link":"a->b","cycle_ns":2000,
		"entries":[{"duration_ns":1000,"gates":1}]}]}`
	exp, err = ParseDeployment(strings.NewReader(short))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.GCLPrograms(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("cycle mismatch: %v", err)
	}
}

func TestComputeWithRouting(t *testing.T) {
	// A diamond where the telemetry hog fills the shortest branch; the
	// control stream only schedules when the CNC may reroute it.
	const cfgJSON = `{
	  "network": {
	    "devices": ["D1", "D2", "D3", "D5"],
	    "switches": ["SW1", "SW2", "SW3", "SW4"],
	    "links": [
	      {"a": "D1", "b": "SW1", "bandwidth_bps": 100000000},
	      {"a": "D3", "b": "SW2", "bandwidth_bps": 100000000},
	      {"a": "D2", "b": "SW4", "bandwidth_bps": 100000000},
	      {"a": "D5", "b": "SW4", "bandwidth_bps": 100000000},
	      {"a": "SW1", "b": "SW2", "bandwidth_bps": 100000000},
	      {"a": "SW1", "b": "SW3", "bandwidth_bps": 100000000},
	      {"a": "SW2", "b": "SW4", "bandwidth_bps": 100000000},
	      {"a": "SW3", "b": "SW4", "bandwidth_bps": 100000000}
	    ]
	  },
	  "streams": [
	    {"id": "hog", "talker": "D3", "listener": "D2", "type": "time-triggered",
	     "period_us": 496, "max_latency_us": 992, "payload_bytes": 6000},
	    {"id": "ctl", "talker": "D1", "listener": "D5", "type": "time-triggered",
	     "period_us": 496, "max_latency_us": 992, "payload_bytes": 3000}
	  ],
	  "options": {"backend": "placer", "routing": true}
	}`
	cfg, err := Parse([]byte(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Compute(cfg)
	if err != nil {
		t.Fatalf("Compute with routing: %v", err)
	}
	if dep.Result.Schedule.NumSlots() == 0 {
		t.Fatal("empty schedule")
	}
	// Without routing the same config is infeasible.
	cfg.Options.Routing = false
	if _, err := Compute(cfg); err == nil {
		t.Fatal("expected infeasibility without routing")
	}
}

func TestMinimizeECTPlumbed(t *testing.T) {
	cfg, err := Parse([]byte(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Options.MinimizeECT = true
	p, err := cfg.BuildProblem()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Opts.MinimizeECT {
		t.Fatal("MinimizeECT not plumbed")
	}
}

func TestStreamRequirementValidation(t *testing.T) {
	mutate := func(f func(*Config)) *Config {
		cfg, err := Parse([]byte(sampleConfig))
		if err != nil {
			t.Fatal(err)
		}
		f(cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  *Config
	}{
		{"zero period", mutate(func(c *Config) { c.Streams[0].PeriodUs = 0 })},
		{"negative period", mutate(func(c *Config) { c.Streams[1].PeriodUs = -620 })},
		{"zero latency", mutate(func(c *Config) { c.Streams[0].MaxLatencyUs = 0 })},
		{"negative latency", mutate(func(c *Config) { c.Streams[0].MaxLatencyUs = -1 })},
		{"zero payload", mutate(func(c *Config) { c.Streams[0].PayloadBytes = 0 })},
		{"negative payload", mutate(func(c *Config) { c.Streams[1].PayloadBytes = -4 })},
		{"no talker", mutate(func(c *Config) { c.Streams[0].Talker = "" })},
		{"no listener", mutate(func(c *Config) { c.Streams[0].Listener = "" })},
		{"self talk", mutate(func(c *Config) { c.Streams[0].Listener = c.Streams[0].Talker })},
		{"sharing ECT", mutate(func(c *Config) { c.Streams[1].Share = true })},
		{"duplicate id", mutate(func(c *Config) { c.Streams[1].ID = c.Streams[0].ID })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.cfg.BuildProblem()
			if !errors.Is(err, ErrBadStream) {
				t.Fatalf("err = %v, want ErrBadStream", err)
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("ErrBadStream must also match ErrBadConfig, got %v", err)
			}
		})
	}
	// The unmutated document still builds.
	cfg := mutate(func(*Config) {})
	if _, err := cfg.BuildProblem(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestDeploymentExportValidation(t *testing.T) {
	cfg, err := Parse([]byte(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Compute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*DeploymentExport)) *DeploymentExport {
		exp := dep.Export()
		f(exp)
		return exp
	}
	cases := []struct {
		name string
		exp  *DeploymentExport
	}{
		{"unknown gcl link", mutate(func(e *DeploymentExport) { e.GCLs[0].Link = "X->Y" })},
		{"bad gcl link id", mutate(func(e *DeploymentExport) { e.GCLs[0].Link = "noarrow" })},
		{"zero cycle", mutate(func(e *DeploymentExport) { e.GCLs[0].CycleNs = 0 })},
		{"negative entry", mutate(func(e *DeploymentExport) { e.GCLs[0].Entries[0].DurationNs = -1 })},
		{"duplicate port", mutate(func(e *DeploymentExport) { e.GCLs = append(e.GCLs, e.GCLs[0]) })},
		{"unknown schedule link", mutate(func(e *DeploymentExport) { e.Schedule[0].Link = "X->Y" })},
		{"zero slot period", mutate(func(e *DeploymentExport) {
			e.Schedule[0].Slots[0].PeriodUs = 0
		})},
		{"zero slot length", mutate(func(e *DeploymentExport) {
			e.Schedule[0].Slots[0].LengthUs = 0
		})},
		{"overlapping slots", mutate(func(e *DeploymentExport) {
			// Two deterministic slots of the same period claiming the same
			// wire time.
			e.Schedule[0].Slots = append(e.Schedule[0].Slots,
				SlotExport{Stream: "a", OffsetUs: 0, LengthUs: 100, PeriodUs: 620, Priority: 5},
				SlotExport{Stream: "b", OffsetUs: 50, LengthUs: 100, PeriodUs: 620, Priority: 5})
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.exp.Validate(dep.Network)
			if !errors.Is(err, ErrBadDeployment) {
				t.Fatalf("err = %v, want ErrBadDeployment", err)
			}
		})
	}
	if err := dep.Export().Validate(dep.Network); err != nil {
		t.Fatalf("valid export rejected: %v", err)
	}
}
