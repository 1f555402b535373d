package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"etsn/internal/core"
	"etsn/internal/qcc"
)

// admitBodyBackend is admitBody with an explicit replan backend (also a
// fuzz seed for DecodeAdmit).
const admitBodyBackend = `{"backend": "greedy", "streams": [
  {"id": "t2", "talker": "D4", "listener": "D2", "type": "time-triggered",
   "period_us": 620, "max_latency_us": 744, "payload_bytes": 500}
]}`

// planConfigNoBackend strips the pinned backend from the test config so the
// daemon's default policy applies.
func planConfigNoBackend() string {
	return strings.Replace(planConfig, `"backend": "placer"`, `"backend": ""`, 1)
}

// TestSubmitBackendDefaultsToRace: a plan job that does not pin a backend
// runs (and journals) the daemon's cascade policy ("race" until PR 14; the
// test keeps its name), so a restart rebuilds the live plan with exactly
// the backend that produced it.
func TestSubmitBackendDefaultsToRace(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{DataDir: dir})
	job, err := s.Submit("acme", KindPlan, []byte(planConfigNoBackend()))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap := waitJob(t, job); snap.State != JobDone {
		t.Fatalf("plan job: %+v", snap)
	}
	ten := s.tenantGet("acme")
	ten.mu.Lock()
	raw, err := json.Marshal(ten.effective)
	ten.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	effective := string(raw)
	if !strings.Contains(effective, `"backend":"cascade"`) {
		t.Fatalf("effective config does not journal the cascade default: %s", effective)
	}
	if v := s.reg.CounterValue("etsn_backend_cascades_total"); v == 0 {
		t.Fatal("plan job did not run the cascade")
	}
	s.Shutdown()

	// Restart: the journaled effective config carries the backend, so the
	// replayed live controller solves with it too.
	s2 := newTestServer(t, Config{DataDir: dir})
	defer s2.Shutdown()
	adm, err := s2.Submit("acme", KindAdmit, []byte(admitBody))
	if err != nil {
		t.Fatalf("Submit admit: %v", err)
	}
	if snap := waitJob(t, adm); snap.State != JobDone {
		t.Fatalf("admit after restart: %+v", snap)
	}
}

// TestReplayJournalWrittenAsRace: a journal written when the default
// backend was still called "race" (testdata, from the commit before the
// cascade) replays to the same plan version and export, the effective
// config it carries recomputes to that export byte for byte, and the live
// controller rebuilt from it admits.
func TestReplayJournalWrittenAsRace(t *testing.T) {
	dir := journalFixture(t, "journal-backend-race.jsonl", nil)
	st, err := replayJournal(dir)
	if err != nil || len(st.tenantDone["acme"]) != 1 {
		t.Fatalf("fixture: %v, done records %v", err, st)
	}
	done := st.tenantDone["acme"][0]
	if !bytes.Contains(done.Effective, []byte(`"backend":"race"`)) {
		t.Fatalf("fixture's effective config does not pin race: %s", done.Effective)
	}
	s := newTestServer(t, Config{DataDir: dir})
	defer s.Shutdown()

	pv, err := s.Plan("acme", 0)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if pv.Version != done.Version || !bytes.Equal(pv.Export, done.Export) {
		t.Fatalf("replayed version %d export %s, journaled version %d export %s",
			pv.Version, pv.Export, done.Version, done.Export)
	}

	cfg, err := qcc.Parse(done.Effective)
	if err != nil {
		t.Fatalf("effective config: %v", err)
	}
	dep, err := qcc.Compute(cfg)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if export := dep.AppendJSON(nil); !bytes.Equal(export, done.Export) {
		t.Fatalf("recomputed export %s, journaled %s", export, done.Export)
	}

	adm, err := s.Submit("acme", KindAdmit, []byte(admitBody))
	if err != nil {
		t.Fatalf("Submit admit: %v", err)
	}
	if snap := waitJob(t, adm); snap.State != JobDone || snap.Version != done.Version+1 {
		t.Fatalf("admit after replay: %+v", snap)
	}
}

// TestAdmitBackendAppliedToReplans: an admit request's backend lands on the
// live controller's replan knob; an unknown name is rejected at decode time
// as invalid input.
func TestAdmitBackendAppliedToReplans(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Shutdown()
	job, err := s.Submit("acme", KindPlan, []byte(planConfig))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap := waitJob(t, job); snap.State != JobDone {
		t.Fatalf("plan job: %+v", snap)
	}
	adm, err := s.Submit("acme", KindAdmit, []byte(admitBodyBackend))
	if err != nil {
		t.Fatalf("Submit admit: %v", err)
	}
	if snap := waitJob(t, adm); snap.State != JobDone {
		t.Fatalf("admit job: %+v", snap)
	}
	ctrl, err := s.liveController(s.tenantGet("acme"))
	if err != nil {
		t.Fatalf("liveController: %v", err)
	}
	if ctrl.ReplanBackend != core.BackendGreedy {
		t.Fatalf("ReplanBackend = %v, want greedy", ctrl.ReplanBackend)
	}

	if _, err := DecodeAdmit(bytes.NewReader([]byte(
		`{"backend": "quantum", "streams": [{"id": "a", "talker": "D1", "listener": "D2",
		  "type": "time-triggered", "period_us": 620, "max_latency_us": 744, "payload_bytes": 100}]}`,
	)), 0); Classify(err) != ClassInvalid {
		t.Fatalf("unknown admit backend classified %v (%v), want invalid", Classify(err), err)
	}
}
