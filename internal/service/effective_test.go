package service

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"etsn/internal/qcc"
)

// oracleEffective is how the daemon derived each version's effective config
// before it kept the config parsed: re-parse the previous document, append
// the admitted requirements, drop the shed streams, marshal. For a plan job
// admitted is nil, prev is the job's payload, and the backend policy
// applies to it.
func oracleEffective(t *testing.T, prev []byte, admitted []qcc.StreamRequirement, shed []string) []byte {
	t.Helper()
	cfg, err := qcc.Parse(prev)
	if err != nil {
		t.Fatal(err)
	}
	if admitted == nil {
		applyBackendPolicy(cfg)
	}
	cfg.Streams = append(cfg.Streams, admitted...)
	if len(shed) > 0 {
		kept := make([]qcc.StreamRequirement, 0, len(cfg.Streams))
		for _, r := range cfg.Streams {
			if !slices.Contains(shed, r.ID) {
				kept = append(kept, r)
			}
		}
		cfg.Streams = kept
	}
	out, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEffectiveConfigBytesMatchReparse: the tenant's effective config is
// kept parsed and extended in memory, but every journaled effective config
// is byte-identical to the re-parse oracle — through a plan job that runs
// under a deadline and sheds a stream, non-sharing and sharing admissions
// (incremental and full replan), an admission with a new period, and an
// admission after a restart. A job deadline leaking into timeout_ms fails
// it.
func TestEffectiveConfigBytesMatchReparse(t *testing.T) {
	// t3's deadline is below its physical floor: the plan job sheds it.
	plan := strings.Replace(planConfigNoBackend(), `"streams": [`, `"streams": [
    {"id": "t3", "talker": "D4", "listener": "D2", "type": "time-triggered",
     "period_us": 620, "max_latency_us": 2, "payload_bytes": 500},`, 1)
	admits := []string{
		admitBody, // non-sharing: incremental
		`{"streams": [{"id": "t4", "talker": "D4", "listener": "D1", "type": "time-triggered",
		  "period_us": 620, "max_latency_us": 744, "payload_bytes": 300, "share": true}]}`, // sharing: full replan
		`{"streams": [{"id": "t5", "talker": "D1", "listener": "D4", "type": "time-triggered",
		  "period_us": 1240, "max_latency_us": 1240, "payload_bytes": 200}]}`, // new period
	}
	afterRestart := `{"streams": [{"id": "t6", "talker": "D2", "listener": "D4", "type": "time-triggered",
	  "period_us": 310, "max_latency_us": 310, "payload_bytes": 100}]}`

	dir := t.TempDir()
	run := func(s *Server, kind JobKind, body string) {
		t.Helper()
		job, err := s.Submit("acme", kind, []byte(body))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if snap := waitJob(t, job); snap.State != JobDone {
			t.Fatalf("%s job %s: %+v", kind, body, snap)
		}
	}
	s := newTestServer(t, Config{DataDir: dir, JobTimeout: 20 * time.Second})
	run(s, KindPlan, plan)
	for _, body := range admits {
		run(s, KindAdmit, body)
	}
	pvs, err := s.Plans("acme")
	if err != nil {
		t.Fatal(err)
	}
	if !pvs[1].Incremental || pvs[2].Incremental {
		t.Fatalf("admissions incremental %v, %v; want the non-sharing one incremental, the sharing one a full replan",
			pvs[1].Incremental, pvs[2].Incremental)
	}
	s.Shutdown()
	s = newTestServer(t, Config{DataDir: dir, JobTimeout: 20 * time.Second})
	run(s, KindAdmit, afterRestart)
	ten := s.tenantGet("acme")
	ten.mu.Lock()
	inMemory, err := json.Marshal(ten.effective)
	ten.mu.Unlock()
	s.Shutdown()
	if err != nil {
		t.Fatal(err)
	}

	st, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	done := st.tenantDone["acme"]
	bodies := append(append([]string{plan}, admits...), afterRestart)
	if len(done) != len(bodies) {
		t.Fatalf("%d done records, want %d", len(done), len(bodies))
	}
	if got := done[0].ShedTCT; len(got) != 1 || got[0] != "t3" {
		t.Fatalf("plan job shed %v, want [t3]", got)
	}
	prev := []byte(plan)
	for i, rec := range done {
		var admitted []qcc.StreamRequirement
		if i > 0 {
			req, err := DecodeAdmit(strings.NewReader(bodies[i]), 0)
			if err != nil {
				t.Fatal(err)
			}
			admitted = req.Streams
		}
		want := oracleEffective(t, prev, admitted, append(append([]string(nil), rec.ShedTCT...), rec.ShedBE...))
		if !bytes.Equal(rec.Effective, want) {
			t.Fatalf("version %d effective config\n got %s\nwant %s", rec.Version, rec.Effective, want)
		}
		prev = rec.Effective
	}
	if bytes.Contains(done[0].Effective, []byte("timeout_ms")) {
		t.Fatalf("the job deadline leaked into the effective config: %s", done[0].Effective)
	}
	if !bytes.Equal(inMemory, prev) {
		t.Fatalf("in-memory effective config\n%s\ndiffers from the journaled\n%s", inMemory, prev)
	}
}
