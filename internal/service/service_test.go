package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// planConfig is a star network (paper Fig. 2 shape, one extra device) with
// one TCT and one ECT stream — comfortably feasible for the placer.
const planConfig = `{
  "network": {
    "devices": ["D1", "D2", "D3", "D4"],
    "switches": ["SW1"],
    "links": [
      {"a": "D1", "b": "SW1", "bandwidth_bps": 100000000},
      {"a": "D2", "b": "SW1", "bandwidth_bps": 100000000},
      {"a": "D3", "b": "SW1", "bandwidth_bps": 100000000},
      {"a": "D4", "b": "SW1", "bandwidth_bps": 100000000}
    ]
  },
  "streams": [
    {"id": "t1", "talker": "D1", "listener": "D3", "type": "time-triggered",
     "period_us": 620, "max_latency_us": 744, "payload_bytes": 4500, "share": true},
    {"id": "e1", "talker": "D2", "listener": "D3", "type": "event-triggered",
     "period_us": 620, "max_latency_us": 620, "payload_bytes": 1500}
  ],
  "options": {"n_prob": 3, "backend": "placer"}
}`

// admitBody adds one more TCT stream between the two otherwise-idle ports
// (the SW1->D3 downlink is saturated by t1+e1).
const admitBody = `{"streams": [
  {"id": "t2", "talker": "D4", "listener": "D2", "type": "time-triggered",
   "period_us": 620, "max_latency_us": 744, "payload_bytes": 500}
]}`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func waitJob(t *testing.T, j *Job) Snapshot {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s stuck in %s", j.ID, j.State())
	}
	return j.Snapshot()
}

func TestServiceLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{DataDir: dir})

	job, err := s.Submit("acme", KindPlan, []byte(planConfig))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	snap := waitJob(t, job)
	if snap.State != JobDone {
		t.Fatalf("plan job: %+v", snap)
	}
	if snap.Version != 1 {
		t.Fatalf("version = %d, want 1", snap.Version)
	}
	if len(snap.ShedTCT) != 0 {
		t.Fatalf("plan shed %v on a feasible config", snap.ShedTCT)
	}

	pv, err := s.Plan("acme", 0)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if pv.Version != 1 || len(pv.Export) == 0 {
		t.Fatalf("plan v%d export=%dB", pv.Version, len(pv.Export))
	}
	// Version 1 rolls out every programmed port.
	if len(pv.ChangedPorts) == 0 {
		t.Fatal("first plan has no changed ports")
	}

	// Admit one more stream into the live plan.
	job2, err := s.Submit("acme", KindAdmit, []byte(admitBody))
	if err != nil {
		t.Fatalf("Submit admit: %v", err)
	}
	snap2 := waitJob(t, job2)
	if snap2.State != JobDone {
		t.Fatalf("admit job: %+v", snap2)
	}
	if snap2.Version != 2 {
		t.Fatalf("admit version = %d, want 2", snap2.Version)
	}
	if len(snap2.ShedTCT) != 0 || len(snap2.ShedBE) != 0 {
		t.Fatalf("admission shed %v/%v", snap2.ShedTCT, snap2.ShedBE)
	}

	// The new version's export must contain the admitted stream.
	pv2, err := s.Plan("acme", 2)
	if err != nil {
		t.Fatalf("Plan v2: %v", err)
	}
	if !strings.Contains(string(pv2.Export), `"t2"`) {
		t.Fatal("v2 export is missing the admitted stream t2")
	}

	diff, err := s.Diff("acme", 1, 2)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	// Admitting t2 must program the D4->SW1 direction somewhere in the
	// rollout; the untouched D1 uplink should not dominate the diff.
	if len(diff.ChangedPorts) == 0 {
		t.Fatal("no changed ports between v1 and v2")
	}
	found := false
	for _, p := range diff.ChangedPorts {
		if strings.Contains(p, "D4") {
			found = true
		}
	}
	if !found {
		t.Fatalf("diff %v does not touch D4's uplink", diff.ChangedPorts)
	}

	if got := s.Metrics().CounterValue("etsn_service_jobs_done_total"); got != 2 {
		t.Fatalf("jobs_done_total = %d, want 2", got)
	}
	if got := s.Metrics().CounterValue("etsn_service_jobs_accepted_total"); got != 2 {
		t.Fatalf("jobs_accepted_total = %d, want 2", got)
	}
	s.Shutdown()
}

func TestServiceErrorClasses(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Shutdown()

	// Malformed JSON is rejected at submission (the journal stores
	// payloads as JSON values).
	if _, err := s.Submit("acme", KindPlan, []byte(`{"network":`)); Classify(err) != ClassInvalid {
		t.Fatalf("malformed body: %v", err)
	}

	// Well-formed JSON with a semantically invalid config reaches the
	// worker and fails with the invalid class.
	bogus := strings.Replace(planConfig, `"time-triggered"`, `"bogus-type"`, 1)
	j1, err := s.Submit("acme", KindPlan, []byte(bogus))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap := waitJob(t, j1); snap.State != JobFailed || snap.Class != "invalid" {
		t.Fatalf("bogus config: %+v", snap)
	}

	// An impossible deadline on the sharing TCT stream is infeasible, and
	// sharing streams are never shed (they fund ECT drain capacity), so
	// the ladder cannot save the job.
	bad := strings.Replace(planConfig, `"max_latency_us": 744`, `"max_latency_us": 2`, 1)
	j2, err := s.Submit("acme", KindPlan, []byte(bad))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap := waitJob(t, j2); snap.State != JobFailed || snap.Class != "infeasible" {
		t.Fatalf("impossible ECT: %+v", snap)
	}

	// Admission without a deployed plan is infeasible, not a crash.
	j3, err := s.Submit("fresh-tenant", KindAdmit, []byte(admitBody))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap := waitJob(t, j3); snap.State != JobFailed {
		t.Fatalf("admit without plan: %+v", snap)
	}
}

// TestServicePlanJobShedsTCTNeverECT drives a plan job into infeasibility
// and checks the degradation ladder: the loose TCT stream is shed, the ECT
// stream survives, and the job still completes with a plan.
func TestServicePlanJobShedsTCTNeverECT(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Shutdown()

	// Add a non-sharing TCT stream whose deadline is below its physical
	// floor; the rest of the config stays satisfiable.
	cfg := strings.Replace(planConfig, `"streams": [`, `"streams": [
    {"id": "t3", "talker": "D4", "listener": "D2", "type": "time-triggered",
     "period_us": 620, "max_latency_us": 2, "payload_bytes": 500},`, 1)
	job, err := s.Submit("acme", KindPlan, []byte(cfg))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	snap := waitJob(t, job)
	if snap.State != JobDone {
		t.Fatalf("degraded plan job: %+v", snap)
	}
	if len(snap.ShedTCT) != 1 || snap.ShedTCT[0] != "t3" {
		t.Fatalf("shed = %v, want [t3]", snap.ShedTCT)
	}
	pv, err := s.Plan("acme", 0)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	// ECT reservations appear in the export as per-possibility slots
	// ("e1/ps0", ...).
	if !strings.Contains(string(pv.Export), `e1/`) {
		t.Fatal("degraded plan lost the ECT stream")
	}
	if !strings.Contains(string(pv.Export), `"t1"`) {
		t.Fatal("degraded plan lost the satisfiable TCT stream")
	}
	if s.Metrics().CounterValue("etsn_service_shed_streams_total") == 0 {
		t.Fatal("shed counter untouched")
	}
}

func TestServiceAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:     1,
		QueueDepth:  1,
		TenantQuota: 1,
		SolveDelay:  300 * time.Millisecond,
	})
	defer s.Shutdown()

	a, err := s.Submit("t1", KindPlan, []byte(planConfig))
	if err != nil {
		t.Fatalf("Submit a: %v", err)
	}
	// Per-tenant quota: t1 already has a job in flight.
	if _, err := s.Submit("t1", KindPlan, []byte(planConfig)); err == nil {
		t.Fatal("quota breach accepted")
	}
	// Wait for the worker to take job a so the queue slot frees.
	deadline := time.Now().Add(5 * time.Second)
	for a.State() == JobQueued && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s.Submit("t2", KindPlan, []byte(planConfig)); err != nil {
		t.Fatalf("Submit b: %v", err)
	}
	// Global queue bound: one job running, one queued, the third bounces.
	if _, err := s.Submit("t3", KindPlan, []byte(planConfig)); err == nil {
		t.Fatal("queue breach accepted")
	}
	if s.RetryAfter() < 1 {
		t.Fatalf("RetryAfter = %d", s.RetryAfter())
	}
	if s.Metrics().CounterValue("etsn_service_jobs_rejected_total") < 2 {
		t.Fatal("rejections not counted")
	}

	// Draining rejects everything.
	s.BeginDrain()
	if _, err := s.Submit("t9", KindPlan, []byte(planConfig)); err == nil {
		t.Fatal("submission accepted while draining")
	}
}

// TestServiceDrainParksAndRecovers is the graceful-shutdown contract: jobs
// interrupted by a drain are journal-parked within the deadline, and a new
// server on the same data directory resumes and finishes them.
func TestServiceDrainParksAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{
		DataDir:      dir,
		Workers:      1,
		SolveDelay:   10 * time.Second, // far beyond the drain budget
		DrainTimeout: 200 * time.Millisecond,
	})

	running, err := s.Submit("acme", KindPlan, []byte(planConfig))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	queued, err := s.Submit("beta", KindPlan, []byte(planConfig))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	start := time.Now()
	s.Shutdown()
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("shutdown took %v with a 200ms drain budget", took)
	}
	for _, j := range []*Job{running, queued} {
		if st := j.State(); st != JobParked {
			t.Fatalf("job %s state %s, want parked", j.ID, st)
		}
	}

	// Restart: replay must resurrect both jobs and run them to completion.
	s2 := newTestServer(t, Config{DataDir: dir})
	defer s2.Shutdown()
	if s2.RecoveredJobs != 2 {
		t.Fatalf("RecoveredJobs = %d, want 2", s2.RecoveredJobs)
	}
	for _, id := range []string{running.ID, queued.ID} {
		j, ok := s2.JobByID(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if !j.Recovered {
			t.Fatalf("job %s not marked recovered", id)
		}
		if snap := waitJob(t, j); snap.State != JobDone {
			t.Fatalf("recovered job %s: %+v", id, snap)
		}
	}
	if _, err := s2.Plan("acme", 0); err != nil {
		t.Fatalf("acme plan after recovery: %v", err)
	}
	if _, err := s2.Plan("beta", 0); err != nil {
		t.Fatalf("beta plan after recovery: %v", err)
	}
	if s2.Metrics().CounterValue("etsn_service_jobs_recovered_total") != 2 {
		t.Fatal("recovered counter wrong")
	}
}

// TestServiceRestartServesPlansWithoutResolving proves the journal carries
// everything needed to serve plans: a cold server answers version fetches
// and diffs immediately, and a subsequent admission still works (the live
// controller is rebuilt deterministically on demand).
func TestServiceRestartServesPlansWithoutResolving(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{DataDir: dir})
	job, err := s.Submit("acme", KindPlan, []byte(planConfig))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap := waitJob(t, job); snap.State != JobDone {
		t.Fatalf("plan: %+v", snap)
	}
	s.Shutdown()

	s2 := newTestServer(t, Config{DataDir: dir})
	defer s2.Shutdown()
	pv, err := s2.Plan("acme", 1)
	if err != nil {
		t.Fatalf("Plan after restart: %v", err)
	}
	var exp map[string]any
	if err := json.Unmarshal(pv.Export, &exp); err != nil {
		t.Fatalf("export not JSON: %v", err)
	}

	job2, err := s2.Submit("acme", KindAdmit, []byte(admitBody))
	if err != nil {
		t.Fatalf("Submit admit: %v", err)
	}
	snap := waitJob(t, job2)
	if snap.State != JobDone || snap.Version != 2 {
		t.Fatalf("admit after restart: %+v", snap)
	}
}

// TestServiceRolloutSetAcrossRestart: a re-plan's rollout set is the diff
// against the previous version's gate programs — held in memory within one
// process, parsed out of the stored export on the first commit after a
// journal replay — and the two bases agree: re-planning the same config
// changes no port either way, and a different config names the same ports.
func TestServiceRolloutSetAcrossRestart(t *testing.T) {
	plan := func(s *Server, doc string) Snapshot {
		t.Helper()
		job, err := s.Submit("acme", KindPlan, []byte(doc))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return waitJob(t, job)
	}
	changedPorts := func(s *Server, version int) []string {
		t.Helper()
		pv, err := s.Plan("acme", version)
		if err != nil {
			t.Fatalf("Plan %d: %v", version, err)
		}
		return pv.ChangedPorts
	}
	smaller := strings.Replace(planConfig, `"payload_bytes": 4500`, `"payload_bytes": 3000`, 1)

	dir := t.TempDir()
	s := newTestServer(t, Config{DataDir: dir})
	for _, doc := range []string{planConfig, planConfig, smaller} {
		if snap := plan(s, doc); snap.State != JobDone {
			t.Fatalf("plan: %+v", snap)
		}
	}
	if got := changedPorts(s, 2); len(got) != 0 {
		t.Fatalf("same config re-planned in memory changed %v", got)
	}
	inMemory := changedPorts(s, 3)
	if len(inMemory) == 0 {
		t.Fatal("a smaller t1 changed no port")
	}
	s.Shutdown()

	// After the restart the base is version 3's stored export.
	s2 := newTestServer(t, Config{DataDir: dir})
	defer s2.Shutdown()
	for _, doc := range []string{smaller, planConfig} {
		if snap := plan(s2, doc); snap.State != JobDone {
			t.Fatalf("plan after restart: %+v", snap)
		}
	}
	if got := changedPorts(s2, 4); len(got) != 0 {
		t.Fatalf("same config re-planned after a replay changed %v", got)
	}
	if got := changedPorts(s2, 5); !slices.Equal(got, inMemory) {
		t.Fatalf("rollout set back to the first config = %v, the way there was %v", got, inMemory)
	}
}

// TestServiceCorruptStoredExportFailsJob: when the tail version's export in
// a replayed journal no longer yields gate programs, the next plan has no
// base to diff against. That used to be swallowed (an empty rollout set on a
// done job); it is a job failure of class internal — the daemon's own state
// is bad, not the client's request.
func TestServiceCorruptStoredExportFailsJob(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{DataDir: dir})
	job, err := s.Submit("acme", KindPlan, []byte(planConfig))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap := waitJob(t, job); snap.State != JobDone {
		t.Fatalf("plan: %+v", snap)
	}
	s.Shutdown()

	// Still one JSON value per line, so the journal replays; no longer a
	// deployment (gate programs need a positive cycle).
	path := filepath.Join(dir, journalName)
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.ReplaceAll(log, []byte(`"cycle_ns":`), []byte(`"cycle_ns":-`))
	if bytes.Equal(corrupt, log) {
		t.Fatal("journal carries no gate program to corrupt")
	}
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{DataDir: dir})
	defer s2.Shutdown()
	if _, err := s2.Plan("acme", 1); err != nil {
		t.Fatalf("the stored version must still be served as it is: %v", err)
	}
	job2, err := s2.Submit("acme", KindPlan, []byte(planConfig))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	snap := waitJob(t, job2)
	if snap.State != JobFailed || snap.Class != ClassInternal.String() ||
		!strings.Contains(snap.Error, "stored export of plan version 1") {
		t.Fatalf("plan over a corrupt stored export: %+v", snap)
	}
	if pvs, _ := s2.Plans("acme"); len(pvs) != 1 {
		t.Fatalf("the failed plan left %d versions, want the 1 replayed", len(pvs))
	}
}
