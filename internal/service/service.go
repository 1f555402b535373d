// Package service turns the one-shot CNC pipeline into a fault-tolerant,
// long-running scheduling daemon ("CNC as a service"). A Server owns a set
// of tenants, each with a versioned plan history and a live deployment; it
// absorbs a request stream through a bounded, quota-guarded job queue, runs
// scheduling jobs on a small worker pool with per-job deadlines, retries
// transient failures with capped jittered backoff, degrades gracefully
// under infeasibility (shedding best-effort and loose TCT streams, never
// ECT — the internal/faults ladder), and journals every job transition to a
// write-ahead log so a `kill -9` mid-solve recovers to a consistent state
// on restart.
//
// The HTTP surface (see handler.go) is a thin layer over this package;
// everything here is usable as a library and is exercised directly by the
// tests.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"etsn/internal/core"
	"etsn/internal/dash"
	"etsn/internal/faults"
	"etsn/internal/gcl"
	"etsn/internal/model"
	"etsn/internal/obs"
	"etsn/internal/qcc"
)

// ErrNoPlan is returned for operations that need a deployed plan (stream
// admission, plan fetches) on a tenant that has none yet.
var ErrNoPlan = errors.New("tenant has no deployed plan")

// ErrRejectedBusy is the admission-control rejection: the tenant is over
// quota or the queue is full. The HTTP layer maps it to 429 + Retry-After.
var ErrRejectedBusy = errors.New("admission rejected: over quota or queue full")

// ErrDraining is returned for submissions during graceful shutdown (503).
var ErrDraining = errors.New("server is draining")

// Config tunes the Server. The zero value gets sensible defaults from
// withDefaults.
type Config struct {
	// DataDir holds the job journal. Empty disables persistence (tests
	// mostly set it; the daemon requires it).
	DataDir string
	// Workers is the solver worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the global pending-job queue (default 16).
	QueueDepth int
	// TenantQuota bounds one tenant's queued+running jobs (default 4).
	TenantQuota int
	// JobTimeout is the per-job solver deadline (default 30s). A job's
	// deadline propagates into core.Options.Timeout for every attempt.
	JobTimeout time.Duration
	// MaxRetries bounds re-solves after transient (budget/timeout)
	// failures (default 2 retries after the first attempt).
	MaxRetries int
	// Backoff shapes the delay before each retry. Defaults to
	// 100ms·2^n capped at 2s with 20% jitter.
	Backoff faults.Backoff
	// DrainTimeout bounds how long Shutdown waits for in-flight jobs
	// before journal-parking them (default 10s).
	DrainTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 4 MiB).
	MaxBodyBytes int64
	// SolveDelay injects artificial latency before every solve attempt —
	// a fault-injection hook that makes "SIGKILL mid-job" deterministic in
	// the crash-recovery gate. Zero in production.
	SolveDelay time.Duration
	// Obs receives service metrics; nil creates a private registry (the
	// /metrics endpoint needs one to exist).
	Obs *obs.Registry
	// HistoryPath optionally points at a bench/history.jsonl-format
	// wall-time history backing the dashboard's /api/trend and
	// /api/history endpoints. Empty serves an empty trend document.
	HistoryPath string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = 4
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 30 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.Backoff.Base <= 0 {
		c.Backoff = faults.Backoff{Base: 100 * time.Millisecond, Cap: 2 * time.Second, Jitter: 0.2}
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = defaultMaxBodyBytes
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	return c
}

// PlanVersion is one entry of a tenant's plan history.
type PlanVersion struct {
	Version int    `json:"version"`
	JobID   string `json:"job"`
	// Export is the full deployment document (qcc.DeploymentExport JSON).
	Export json.RawMessage `json:"-"`
	// ChangedPorts lists the ports whose gate program differs from the
	// previous version — the rollout set.
	ChangedPorts []string `json:"changed_ports,omitempty"`
	ShedTCT      []string `json:"shed_tct,omitempty"`
	ShedBE       []string `json:"shed_be,omitempty"`
	Incremental  bool     `json:"incremental,omitempty"`
}

// tenant is one isolated customer of the daemon.
type tenant struct {
	name string

	// execMu serializes job execution for the tenant: plan state is a
	// linear history, two concurrent solves for one tenant make no sense.
	execMu sync.Mutex

	mu       sync.Mutex
	inflight int // queued + running jobs (admission control)
	versions []*PlanVersion
	// effective is the cumulative config producing the latest version,
	// exactly as journaled. A commit builds the next one beside it and
	// never modifies it. Nil after a journal replay until liveController
	// parses replayed.
	effective *qcc.Config
	// replayed is the latest version's journaled effective config, kept
	// raw after a replay until its first use.
	replayed json.RawMessage
	// programs are the gate programs of the latest version, the base of the
	// next commit's rollout set. Nil after a journal replay until the first
	// commit, which parses them out of the stored export.
	programs map[model.LinkID]*gcl.PortGCL
	ctrl     *faults.Controller

	// exportBuf is encodeExport's scratch, guarded by execMu.
	exportBuf []byte
}

// Server is the daemon core.
type Server struct {
	cfg  Config
	reg  *obs.Registry
	dash *dash.Server

	journal *journal

	mu       sync.Mutex
	tenants  map[string]*tenant
	jobs     map[string]*Job
	jobOrder []string
	jobSeq   int
	draining bool

	queue chan *Job

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// RecoveredJobs counts jobs re-enqueued by journal replay at startup.
	RecoveredJobs int
}

// New builds a Server: replays the journal in cfg.DataDir (if any),
// restores tenant plan histories, re-enqueues unfinished jobs, and starts
// the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Obs,
		tenants: make(map[string]*tenant),
		jobs:    make(map[string]*Job),
	}
	s.dash = dash.NewServer(dash.Options{Registry: cfg.Obs, HistoryPath: cfg.HistoryPath})
	s.ctx, s.cancel = context.WithCancel(context.Background())

	var pending []*replayedJob
	if cfg.DataDir != "" {
		st, err := replayJournal(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		if err := s.restore(st); err != nil {
			return nil, err
		}
		pending = st.pending()
		s.journal, err = openJournal(cfg.DataDir, st.lastSeq)
		if err != nil {
			return nil, err
		}
	}

	depth := cfg.QueueDepth
	if need := len(pending) + cfg.QueueDepth; need > depth {
		depth = need
	}
	s.queue = make(chan *Job, depth)
	for _, rj := range pending {
		job := newJob(rj.rec.Job, rj.rec.Tenant, rj.rec.JobKind, rj.rec.Payload,
			time.Duration(rj.rec.DeadlineMs)*time.Millisecond)
		job.Recovered = true
		s.jobs[job.ID] = job
		s.jobOrder = append(s.jobOrder, job.ID)
		s.tenantFor(job.Tenant).inflight++
		s.queue <- job
		s.RecoveredJobs++
		s.reg.Counter("etsn_service_jobs_recovered_total").Inc()
	}
	s.reg.Gauge("etsn_service_queue_depth").Set(int64(len(s.queue)))

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// restore folds a replayed journal into server state: terminal jobs become
// queryable snapshots, tenants get their version history and effective
// configs back (live controllers are rebuilt lazily on first need).
func (s *Server) restore(st *replayState) error {
	for _, rj := range st.jobs {
		job := newJob(rj.rec.Job, rj.rec.Tenant, rj.rec.JobKind, rj.rec.Payload,
			time.Duration(rj.rec.DeadlineMs)*time.Millisecond)
		if n := jobSeqOf(rj.rec.Job); n > s.jobSeq {
			s.jobSeq = n
		}
		switch rj.terminal {
		case "done":
			job.finishDone(rj.doneRec.Version, rj.doneRec.ShedTCT, rj.doneRec.ShedBE)
		case "failed":
			job.finishFailed(ParseClass(rj.class), rj.errText)
		default:
			continue // pending: re-created (with Recovered set) by New
		}
		s.jobs[job.ID] = job
		s.jobOrder = append(s.jobOrder, job.ID)
	}
	for name, recs := range st.tenantDone {
		t := s.tenantFor(name)
		for _, rec := range recs {
			t.versions = append(t.versions, &PlanVersion{
				Version:      rec.Version,
				JobID:        rec.Job,
				Export:       rec.Export,
				ChangedPorts: rec.Changed,
				ShedTCT:      rec.ShedTCT,
				ShedBE:       rec.ShedBE,
			})
			t.replayed = rec.Effective
		}
	}
	return nil
}

// jobSeqOf parses the numeric suffix of a job id ("j-42" -> 42).
func jobSeqOf(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "j-%d", &n); err != nil {
		return 0
	}
	return n
}

func (s *Server) tenantFor(name string) *tenant {
	t, ok := s.tenants[name]
	if !ok {
		t = &tenant{name: name}
		s.tenants[name] = t
	}
	return t
}

// Metrics exposes the server's registry (for /metrics and tests).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Dash returns the daemon's live dashboard server; the HTTP layer mounts
// its handler next to /metrics.
func (s *Server) Dash() *dash.Server { return s.dash }

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// RetryAfter estimates (in whole seconds, at least 1) when a rejected
// client should retry: the queue's current depth paced by the worker pool.
func (s *Server) RetryAfter() int {
	sec := 1 + len(s.queue)/s.cfg.Workers
	if sec < 1 {
		sec = 1
	}
	return sec
}

// Submit runs admission control and, when the job is admitted, journals and
// enqueues it. The payload must already be validated (DecodeSubmit /
// DecodeAdmit). Returns ErrDraining during shutdown and ErrRejectedBusy
// when the tenant quota or the queue bound would be exceeded — the caller
// maps those to 503/429.
func (s *Server) Submit(tenantName string, kind JobKind, payload []byte) (*Job, error) {
	start := time.Now()
	if !json.Valid(payload) {
		// The journal stores payloads verbatim as JSON values; a payload
		// that is not JSON could never decode into a config anyway.
		s.reg.Counter(`etsn_service_jobs_rejected_total{reason="body"}`).Inc()
		return nil, fmt.Errorf("%w: body is not valid JSON", qcc.ErrBadConfig)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reg.Counter(`etsn_service_jobs_rejected_total{reason="draining"}`).Inc()
		return nil, ErrDraining
	}
	t := s.tenantFor(tenantName)
	if t.inflight >= s.cfg.TenantQuota {
		s.mu.Unlock()
		s.reg.Counter(`etsn_service_jobs_rejected_total{reason="quota"}`).Inc()
		return nil, fmt.Errorf("%w: tenant %q has %d jobs in flight (quota %d)",
			ErrRejectedBusy, tenantName, s.cfg.TenantQuota, s.cfg.TenantQuota)
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.reg.Counter(`etsn_service_jobs_rejected_total{reason="queue"}`).Inc()
		return nil, fmt.Errorf("%w: queue depth %d reached", ErrRejectedBusy, s.cfg.QueueDepth)
	}
	s.jobSeq++
	job := newJob(fmt.Sprintf("j-%d", s.jobSeq), tenantName, kind, payload, s.cfg.JobTimeout)
	t.inflight++
	s.jobs[job.ID] = job
	s.jobOrder = append(s.jobOrder, job.ID)
	s.mu.Unlock()

	// WAL: the job must be durable before the client sees its id.
	if err := s.journal.append(journalRecord{
		Kind: "submitted", Job: job.ID, Tenant: tenantName, JobKind: kind,
		Payload: json.RawMessage(payload), DeadlineMs: job.Deadline.Milliseconds(),
	}); err != nil {
		s.mu.Lock()
		t.inflight--
		delete(s.jobs, job.ID)
		for i, id := range s.jobOrder {
			if id == job.ID {
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return nil, err
	}

	select {
	case s.queue <- job:
	default:
		// The capacity check above makes this unreachable in practice
		// (queue writes happen under admission accounting); park defensively
		// rather than block a handler.
		s.parkJob(job)
		return job, nil
	}
	s.reg.Counter("etsn_service_jobs_accepted_total").Inc()
	// Tenant-labeled twin of the global counter: the dashboard's
	// per-tenant registry view (/api/metrics?tenant=) keys off these.
	// obs.Labels escapes hostile tenant names.
	s.reg.Counter(obs.Labels("etsn_service_tenant_jobs_total", "tenant", tenantName, "state", "accepted")).Inc()
	s.reg.Gauge("etsn_service_queue_depth").Set(int64(len(s.queue)))
	s.reg.Histogram("etsn_service_admission_latency_ns").ObserveDuration(time.Since(start))
	return job, nil
}

// JobByID returns a submitted job.
func (s *Server) JobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all jobs in submission order.
func (s *Server) Jobs() []Snapshot {
	s.mu.Lock()
	ids := append([]string(nil), s.jobOrder...)
	jobs := s.jobs
	s.mu.Unlock()
	out := make([]Snapshot, 0, len(ids))
	for _, id := range ids {
		out = append(out, jobs[id].Snapshot())
	}
	return out
}

// Plans returns a tenant's plan history (newest last).
func (s *Server) Plans(tenantName string) ([]*PlanVersion, error) {
	s.mu.Lock()
	t, ok := s.tenants[tenantName]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNoPlan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.versions) == 0 {
		return nil, ErrNoPlan
	}
	return append([]*PlanVersion(nil), t.versions...), nil
}

// Plan returns one plan version; version 0 means latest.
func (s *Server) Plan(tenantName string, version int) (*PlanVersion, error) {
	versions, err := s.Plans(tenantName)
	if err != nil {
		return nil, err
	}
	if version == 0 {
		return versions[len(versions)-1], nil
	}
	for _, v := range versions {
		if v.Version == version {
			return v, nil
		}
	}
	return nil, fmt.Errorf("%w: version %d", ErrNoPlan, version)
}

// PlanDiff describes the GCL rollout from one plan version to another: the
// ports whose gate programs changed, with their new programs.
type PlanDiff struct {
	Tenant string `json:"tenant"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	// ChangedPorts is every port whose program differs.
	ChangedPorts []string `json:"changed_ports"`
	// Programs holds the new gate program of each changed port.
	Programs []qcc.PortGCLExport `json:"programs"`
}

// Diff computes the GCL rollout between two stored plan versions.
func (s *Server) Diff(tenantName string, from, to int) (*PlanDiff, error) {
	a, err := s.Plan(tenantName, from)
	if err != nil {
		return nil, err
	}
	b, err := s.Plan(tenantName, to)
	if err != nil {
		return nil, err
	}
	gclsA, _, err := exportPrograms(a.Export)
	if err != nil {
		return nil, err
	}
	gclsB, expB, err := exportPrograms(b.Export)
	if err != nil {
		return nil, err
	}
	changed := gcl.ChangedPorts(gclsA, gclsB)
	diff := &PlanDiff{Tenant: tenantName, From: a.Version, To: b.Version}
	byLink := make(map[string]qcc.PortGCLExport, len(expB.GCLs))
	for _, pg := range expB.GCLs {
		byLink[pg.Link] = pg
	}
	for _, lid := range changed {
		diff.ChangedPorts = append(diff.ChangedPorts, lid.String())
		if pg, ok := byLink[lid.String()]; ok {
			diff.Programs = append(diff.Programs, pg)
		}
	}
	return diff, nil
}

// exportPrograms parses a stored deployment export and reconstructs its
// gate programs.
func exportPrograms(raw json.RawMessage) (map[model.LinkID]*gcl.PortGCL, *qcc.DeploymentExport, error) {
	exp, err := qcc.ParseDeployment(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	gcls, err := exp.GCLPrograms()
	if err != nil {
		return nil, nil, err
	}
	return gcls, exp, nil
}

// worker drains the job queue until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case job, ok := <-s.queue:
			if !ok {
				return
			}
			s.reg.Gauge("etsn_service_queue_depth").Set(int64(len(s.queue)))
			s.runJob(job)
		}
	}
}

// runJob executes one job end to end: deadline, retries with backoff on
// transient failures, graceful degradation on infeasibility, journaled
// terminal state, tenant plan-version commit.
func (s *Server) runJob(job *Job) {
	t := s.tenantGet(job.Tenant)
	t.execMu.Lock()
	defer t.execMu.Unlock()
	defer func() {
		s.mu.Lock()
		t.inflight--
		s.mu.Unlock()
	}()

	if job.State() == JobParked {
		return // parked by a drain that lost the race with the queue
	}
	job.setRunning()
	_ = s.journal.append(journalRecord{Kind: "started", Job: job.ID})

	if s.cfg.SolveDelay > 0 && !s.sleep(s.cfg.SolveDelay) {
		s.parkJob(job)
		return
	}

	var err error
	switch job.Kind {
	case KindPlan:
		err = s.runPlanJob(t, job)
	case KindAdmit:
		err = s.runAdmitJob(t, job)
	default:
		err = fmt.Errorf("%w: unknown job kind %q", qcc.ErrBadConfig, job.Kind)
	}
	if err == nil {
		return
	}
	if s.ctx.Err() != nil && job.State() != JobFailed && job.State() != JobDone {
		s.parkJob(job)
		return
	}
	s.failJob(job, err)
}

// defaultJobBackend is the daemon's scheduling-backend policy: submitted
// jobs run the backend cascade (first verified plan in priority order
// wins) unless the configuration pins one explicitly.
const defaultJobBackend = "cascade"

// applyBackendPolicy fills the daemon's backend default into a parsed
// config. It runs on every path that computes a plan — job execution,
// the effective-config snapshot, and the journal-replay rebuild — so a
// restart solves with exactly the backend the deployed plan used.
func applyBackendPolicy(cfg *qcc.Config) {
	if cfg.Options.Backend == "" {
		cfg.Options.Backend = defaultJobBackend
	}
}

// runPlanJob computes a full plan from the job's configuration document,
// shedding per the degradation ladder when the problem is infeasible.
func (s *Server) runPlanJob(t *tenant, job *Job) error {
	cfg, err := qcc.Parse(job.Payload)
	if err != nil {
		return err
	}
	applyBackendPolicy(cfg)
	// The deadline and the registry go to the solver's copy only: cfg
	// becomes the journaled effective config, which carries neither.
	run := *cfg
	if ms := job.Deadline.Milliseconds(); ms > 0 {
		run.Options.TimeoutMs = ms
	}
	run.Obs = s.reg

	shed := make(map[string]bool)
	attempt := 0
	for {
		job.addAttempt()
		dep, err := qcc.Compute(configWithout(&run, shed))
		if err == nil {
			return s.commitPlan(t, job, cfg, dep, shed, nil)
		}
		switch Classify(err) {
		case ClassTimeout:
			if attempt >= s.cfg.MaxRetries {
				return err
			}
			s.reg.Counter("etsn_service_jobs_retried_total").Inc()
			if !s.sleep(s.cfg.Backoff.Delay(attempt)) {
				return err
			}
			attempt++
		case ClassInfeasible:
			// Degradation ladder: qcc configurations carry no best-effort
			// flows (those exist only in the simulator), so the ladder
			// starts at its TCT rung — shed the loosest non-sharing TCT
			// stream and retry. ECT is never shed.
			victim := s.pickVictim(cfg, shed)
			if victim == "" {
				return err
			}
			shed[victim] = true
			s.reg.Counter("etsn_service_shed_streams_total").Inc()
		default:
			return err
		}
	}
}

// pickVictim orders the remaining TCT requirements by deadline slack on
// their shortest paths and returns the loosest non-sharing one, or "".
func (s *Server) pickVictim(cfg *qcc.Config, shed map[string]bool) string {
	network, err := cfg.BuildNetwork()
	if err != nil {
		return ""
	}
	tct, _, err := qcc.BuildStreams(network, cfg.Streams)
	if err != nil {
		return ""
	}
	skip := make(map[model.StreamID]bool, len(shed))
	for id := range shed {
		skip[model.StreamID(id)] = true
	}
	if v := faults.PickVictim(network, tct, skip); v != "" {
		return string(v)
	}
	// PickVictim's loosest-first ordering never selects a stream whose
	// slack is deeply negative — but such a stream is exactly what makes a
	// submitted problem infeasible. Fall back to the tightest remaining
	// non-sharing candidate (sharing streams still protected: they fund
	// ECT drain capacity).
	var best model.StreamID
	for _, st := range tct {
		if st.Share || skip[st.ID] {
			continue
		}
		if best == "" || st.E2E < e2eOf(tct, best) ||
			(st.E2E == e2eOf(tct, best) && st.ID < best) {
			best = st.ID
		}
	}
	return string(best)
}

func e2eOf(tct []*model.Stream, id model.StreamID) time.Duration {
	for _, st := range tct {
		if st.ID == id {
			return st.E2E
		}
	}
	return 0
}

// configWithout clones the config minus the shed streams.
func configWithout(cfg *qcc.Config, shed map[string]bool) *qcc.Config {
	if len(shed) == 0 {
		return cfg
	}
	cp := *cfg
	cp.Streams = make([]qcc.StreamRequirement, 0, len(cfg.Streams))
	for _, r := range cfg.Streams {
		if !shed[r.ID] {
			cp.Streams = append(cp.Streams, r)
		}
	}
	return &cp
}

// runAdmitJob admits additional streams into the tenant's live plan.
func (s *Server) runAdmitJob(t *tenant, job *Job) error {
	req, err := DecodeAdmit(bytes.NewReader(job.Payload), s.cfg.MaxBodyBytes)
	if err != nil {
		return err
	}
	ctrl, err := s.liveController(t)
	if err != nil {
		return err
	}
	// Any full replan the admission falls back to runs the backend the
	// request named (default: the daemon's cascade policy). Replayed jobs
	// re-decode the journaled payload, so the choice survives restarts.
	replan := req.Backend
	if replan == "" {
		replan = defaultJobBackend
	}
	backend, err := core.ParseBackend(replan)
	if err != nil {
		return fmt.Errorf("%w: %v", qcc.ErrBadConfig, err)
	}
	ctrl.ReplanBackend = backend
	prob, _, _ := ctrl.Deployed()
	newTCT, newECT, err := qcc.BuildStreams(prob.Network, req.Streams)
	if err != nil {
		return err
	}

	// The admission controller's full-replan budget follows the job
	// deadline: first attempt gets a quarter, doubling per retry.
	ctrl.BaseTimeout = job.Deadline / 4
	if ctrl.BaseTimeout <= 0 {
		ctrl.BaseTimeout = time.Second
	}

	attempt := 0
	for {
		job.addAttempt()
		rec, err := ctrl.Admit(newTCT, newECT)
		if err == nil {
			return s.commitAdmit(t, job, req, rec)
		}
		if Classify(err) == ClassTimeout && attempt < s.cfg.MaxRetries {
			s.reg.Counter("etsn_service_jobs_retried_total").Inc()
			if !s.sleep(s.cfg.Backoff.Delay(attempt)) {
				return err
			}
			attempt++
			continue
		}
		return err
	}
}

// liveController returns the tenant's live deployment controller,
// rebuilding it deterministically from the journaled effective
// configuration after a restart. The rebuild parses that configuration
// once and keeps it as the tenant's effective config.
func (s *Server) liveController(t *tenant) (*faults.Controller, error) {
	t.mu.Lock()
	ctrl := t.ctrl
	replayed := t.replayed
	t.mu.Unlock()
	if ctrl != nil {
		return ctrl, nil
	}
	if len(replayed) == 0 {
		return nil, fmt.Errorf("%w: tenant %q", ErrNoPlan, t.name)
	}
	cfg, err := qcc.Parse(replayed)
	if err != nil {
		return nil, fmt.Errorf("rebuilding live plan: %w", err)
	}
	// New-format effective configs journal the backend explicitly; the
	// policy here only upgrades pre-backend journals, deterministically,
	// and only in the solver's copy: the kept config stays as journaled.
	run := *cfg
	applyBackendPolicy(&run)
	run.Obs = s.reg
	dep, err := qcc.Compute(&run)
	if err != nil {
		return nil, fmt.Errorf("rebuilding live plan: %w", err)
	}
	ctrl, err = faults.NewController(dep.Problem, dep.Result, dep.GCLs, nil)
	if err != nil {
		return nil, err
	}
	ctrl.Obs = s.reg
	t.mu.Lock()
	t.ctrl = ctrl
	t.effective = cfg
	t.replayed = nil
	t.mu.Unlock()
	return ctrl, nil
}

// commitPlan records a fresh full plan as the tenant's next version. cfg is
// the job's parsed configuration with the backend policy applied; the
// effective config is cfg minus the shed streams, so a restart rebuilds
// exactly the deployed plan.
func (s *Server) commitPlan(t *tenant, job *Job, cfg *qcc.Config, dep *qcc.Deployment, shed map[string]bool, shedBE []string) error {
	effectiveCfg := configWithout(cfg, shed)
	effective, err := json.Marshal(effectiveCfg)
	if err != nil {
		return err
	}

	ctrl, err := faults.NewController(dep.Problem, dep.Result, dep.GCLs, nil)
	if err != nil {
		return err
	}
	ctrl.Obs = s.reg

	pv := &PlanVersion{JobID: job.ID, Export: t.encodeExport(dep), ShedTCT: sortedKeys(shed), ShedBE: shedBE}
	t.mu.Lock()
	prev, err := t.deployedPrograms()
	if err != nil {
		t.mu.Unlock()
		return err
	}
	pv.Version = nextVersion(t.versions)
	// No previous version: every port changed, the first rollout.
	pv.ChangedPorts = linkStrings(gcl.ChangedPorts(prev, dep.GCLs))
	t.versions = append(t.versions, pv)
	t.effective = effectiveCfg
	t.replayed = nil
	t.programs = dep.GCLs
	t.ctrl = ctrl
	t.mu.Unlock()

	return s.finishJobDone(job, pv, effective)
}

// commitAdmit records an admission recovery as the tenant's next version
// and extends the effective config with the admitted streams (minus any
// deployed TCT the ladder shed to make room). The tenant's effective config
// is set: runAdmitJob went through liveController first.
func (s *Server) commitAdmit(t *tenant, job *Job, req *AdmitRequest, rec *faults.Recovery) error {
	t.mu.Lock()
	next := *t.effective
	t.mu.Unlock()
	// Clip makes the append copy: the committed config keeps its streams.
	next.Streams = append(slices.Clip(next.Streams), req.Streams...)
	shed := make(map[string]bool, len(rec.ShedTCT)+len(rec.ShedBE))
	shedTCT := make([]string, 0, len(rec.ShedTCT))
	for _, id := range rec.ShedTCT {
		shed[string(id)] = true
		shedTCT = append(shedTCT, string(id))
	}
	shedBE := make([]string, 0, len(rec.ShedBE))
	for _, id := range rec.ShedBE {
		shed[string(id)] = true
		shedBE = append(shedBE, string(id))
	}
	effectiveCfg := configWithout(&next, shed)
	newEffective, err := json.Marshal(effectiveCfg)
	if err != nil {
		return err
	}
	dep := &qcc.Deployment{Network: rec.Problem.Network, Problem: rec.Problem,
		Result: rec.Result, GCLs: rec.GCLs}
	pv := &PlanVersion{
		JobID: job.ID, Export: t.encodeExport(dep),
		ChangedPorts: linkStrings(rec.ChangedPorts), ShedTCT: shedTCT, ShedBE: shedBE,
		Incremental: rec.Incremental,
	}

	t.mu.Lock()
	pv.Version = nextVersion(t.versions)
	t.versions = append(t.versions, pv)
	t.effective = effectiveCfg
	t.programs = rec.GCLs
	t.mu.Unlock()

	return s.finishJobDone(job, pv, newEffective)
}

// finishJobDone journals the terminal done record and completes the job.
func (s *Server) finishJobDone(job *Job, pv *PlanVersion, effective []byte) error {
	err := s.journal.append(journalRecord{
		Kind: "done", Job: job.ID, Tenant: job.Tenant, Version: pv.Version,
		Export: pv.Export, Effective: json.RawMessage(effective),
		Changed: pv.ChangedPorts, ShedTCT: pv.ShedTCT, ShedBE: pv.ShedBE,
	})
	// Count before finishing: finishDone releases the job's waiters, and
	// what they read next must already include this job.
	s.reg.Counter("etsn_service_jobs_done_total").Inc()
	s.reg.Counter(obs.Labels("etsn_service_tenant_jobs_total", "tenant", job.Tenant, "state", "done")).Inc()
	job.finishDone(pv.Version, pv.ShedTCT, pv.ShedBE)
	return err
}

func (s *Server) failJob(job *Job, err error) {
	class := Classify(err)
	_ = s.journal.append(journalRecord{
		Kind: "failed", Job: job.ID, Tenant: job.Tenant,
		Class: class.String(), Error: err.Error(),
	})
	s.reg.Counter(`etsn_service_jobs_failed_total{class="` + class.String() + `"}`).Inc()
	s.reg.Counter(obs.Labels("etsn_service_tenant_jobs_total", "tenant", job.Tenant, "state", "failed")).Inc()
	job.finishFailed(class, err.Error())
}

func (s *Server) parkJob(job *Job) {
	_ = s.journal.append(journalRecord{Kind: "parked", Job: job.ID, Tenant: job.Tenant})
	s.reg.Counter("etsn_service_jobs_parked_total").Inc()
	job.park()
}

func (s *Server) tenantGet(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantFor(name)
}

// sleep waits interruptibly; false means shutdown interrupted it.
func (s *Server) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-s.ctx.Done():
		return false
	}
}

// BeginDrain flips the server into draining mode: /readyz goes 503 and new
// submissions are rejected, while queued and running jobs continue.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Shutdown drains gracefully: stop accepting work, give in-flight jobs up
// to DrainTimeout to finish, then journal-park whatever remains so the
// next startup's replay resumes it. Always closes the journal last.
func (s *Server) Shutdown() {
	s.BeginDrain()
	// Release dashboard SSE streams first so the HTTP server's own
	// drain is not held open by long-lived event streams.
	s.dash.Close()

	// Pull jobs that never started out of the queue and park them; workers
	// race with us for queue entries, which is fine either way.
	parked := true
	for parked {
		select {
		case job := <-s.queue:
			s.parkJob(job)
			s.mu.Lock()
			s.tenantFor(job.Tenant).inflight--
			s.mu.Unlock()
		default:
			parked = false
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	// Workers idle on the queue; cancelling the context is what releases
	// them. In-flight solves keep running until they observe the cancel at
	// their next retry/sleep point or complete within the drain budget.
	s.cancel()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		// Past the deadline: park every job still not terminal. A worker
		// finishing afterwards finds its job parked and drops the result;
		// replay re-runs the job deterministically.
		s.mu.Lock()
		var stuck []*Job
		for _, id := range s.jobOrder {
			j := s.jobs[id]
			if st := j.State(); st == JobQueued || st == JobRunning {
				stuck = append(stuck, j)
			}
		}
		s.mu.Unlock()
		for _, j := range stuck {
			s.parkJob(j)
		}
	}
	s.journal.close()
}

func nextVersion(versions []*PlanVersion) int {
	if len(versions) == 0 {
		return 1
	}
	return versions[len(versions)-1].Version + 1
}

// encodeExport returns dep's export document at its exact size. A plan
// version keeps it for as long as the daemon runs, and AppendJSON sizes a
// fresh buffer by estimate, so it encodes into the tenant's scratch buffer
// and the version gets a copy. The caller is the tenant's running job, which
// holds t.execMu.
func (t *tenant) encodeExport(dep *qcc.Deployment) json.RawMessage {
	t.exportBuf = dep.AppendJSON(t.exportBuf[:0])
	return bytes.Clone(t.exportBuf)
}

// deployedPrograms returns the gate programs of the tenant's latest plan
// version, nil when it has none. The caller holds t.mu. They are parsed out
// of the stored export only on the first commit after a journal replay; an
// export that no longer reads back is the daemon's own state gone bad, so
// the error carries no input-class sentinel and classifies as internal.
func (t *tenant) deployedPrograms() (map[model.LinkID]*gcl.PortGCL, error) {
	if t.programs != nil || len(t.versions) == 0 {
		return t.programs, nil
	}
	tail := t.versions[len(t.versions)-1]
	programs, _, err := exportPrograms(tail.Export)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: stored export of plan version %d is unreadable: %v",
			t.name, tail.Version, err)
	}
	return programs, nil
}

func linkStrings(lids []model.LinkID) []string {
	out := make([]string, 0, len(lids))
	for _, lid := range lids {
		out = append(out, lid.String())
	}
	return out
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
