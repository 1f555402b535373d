package service

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"etsn/internal/core"
	"etsn/internal/qcc"
)

// JobKind distinguishes the two kinds of scheduling work the daemon runs.
type JobKind string

const (
	// KindPlan computes a full plan from a complete configuration document,
	// replacing the tenant's deployed plan.
	KindPlan JobKind = "plan"
	// KindAdmit incrementally admits additional streams into the tenant's
	// live plan (full-replan fallback included).
	KindAdmit JobKind = "admit"
)

// JobState is the lifecycle of one job. Terminal states are JobDone and
// JobFailed; JobParked is the journaled not-yet-terminal state a graceful
// drain leaves behind for the next process to resume.
type JobState string

const (
	// JobQueued: accepted, journaled, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is solving it.
	JobRunning JobState = "running"
	// JobDone: a plan version was produced.
	JobDone JobState = "done"
	// JobFailed: terminally failed (see Class and Error).
	JobFailed JobState = "failed"
	// JobParked: interrupted by a drain before completion; resumed on the
	// next startup's journal replay.
	JobParked JobState = "parked"
)

// Job is one unit of scheduling work. Fields under mu change as the job
// progresses; everything else is immutable after submission.
type Job struct {
	ID        string
	Tenant    string
	Kind      JobKind
	Payload   []byte // raw request body, journaled verbatim for replay
	Deadline  time.Duration
	Recovered bool // re-enqueued by journal replay rather than submitted

	mu       sync.Mutex
	state    JobState
	class    Class
	errText  string
	version  int // plan version produced (JobDone)
	attempts int
	shedTCT  []string
	shedBE   []string
	done     chan struct{}
}

func newJob(id, tenant string, kind JobKind, payload []byte, deadline time.Duration) *Job {
	return &Job{
		ID:       id,
		Tenant:   tenant,
		Kind:     kind,
		Payload:  payload,
		Deadline: deadline,
		state:    JobQueued,
		done:     make(chan struct{}),
	}
}

// Done is closed when the job reaches a terminal (or parked) state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot is the externally visible state of a job.
type Snapshot struct {
	ID        string   `json:"id"`
	Tenant    string   `json:"tenant"`
	Kind      JobKind  `json:"kind"`
	State     JobState `json:"state"`
	Class     string   `json:"class,omitempty"`
	Error     string   `json:"error,omitempty"`
	Version   int      `json:"plan_version,omitempty"`
	Attempts  int      `json:"attempts,omitempty"`
	ShedTCT   []string `json:"shed_tct,omitempty"`
	ShedBE    []string `json:"shed_be,omitempty"`
	Recovered bool     `json:"recovered,omitempty"`
}

// Snapshot returns a copy of the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:        j.ID,
		Tenant:    j.Tenant,
		Kind:      j.Kind,
		State:     j.state,
		Version:   j.version,
		Attempts:  j.attempts,
		ShedTCT:   append([]string(nil), j.shedTCT...),
		ShedBE:    append([]string(nil), j.shedBE...),
		Recovered: j.Recovered,
	}
	if j.state == JobFailed {
		s.Class = j.class.String()
		s.Error = j.errText
	}
	return s
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
}

func (j *Job) addAttempt() {
	j.mu.Lock()
	j.attempts++
	j.mu.Unlock()
}

// settled reports whether the job already left the queued/running states.
// Transitions are first-write-wins: a drain parking a job races with the
// worker finishing it, and whichever lands first sticks (the journal keeps
// both records; replay resolves them with at-least-once semantics).
func (j *Job) settled() bool {
	return j.state == JobDone || j.state == JobFailed || j.state == JobParked
}

func (j *Job) finishDone(version int, shedTCT, shedBE []string) {
	j.mu.Lock()
	if j.settled() {
		j.mu.Unlock()
		return
	}
	j.state = JobDone
	j.version = version
	j.shedTCT = shedTCT
	j.shedBE = shedBE
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) finishFailed(class Class, errText string) {
	j.mu.Lock()
	if j.settled() {
		j.mu.Unlock()
		return
	}
	j.state = JobFailed
	j.class = class
	j.errText = errText
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) park() {
	j.mu.Lock()
	if j.settled() {
		j.mu.Unlock()
		return
	}
	j.state = JobParked
	j.mu.Unlock()
	close(j.done)
}

// maxBodyBytes is the default request-body bound; oversized submissions
// are invalid input, not a reason to buffer without limit.
const defaultMaxBodyBytes = 4 << 20

// DecodeSubmit parses and semantically validates a plan-job request body (a
// qcc configuration document). Everything it rejects wraps qcc.ErrBadConfig
// so Classify maps it to HTTP 400, and it never panics on hostile input
// (fuzzed). The returned config has been fully problem-checked: topology
// builds, every stream routes.
func DecodeSubmit(r io.Reader, limit int64) (*qcc.Config, error) {
	if limit <= 0 {
		limit = defaultMaxBodyBytes
	}
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, fmt.Errorf("%w: reading body: %v", qcc.ErrBadConfig, err)
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", qcc.ErrBadConfig, limit)
	}
	cfg, err := qcc.Parse(data)
	if err != nil {
		return nil, err
	}
	if _, err := cfg.BuildProblem(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// AdmitRequest is the body of an incremental stream-admission job.
type AdmitRequest struct {
	Streams []qcc.StreamRequirement `json:"streams"`
	// Backend optionally names the scheduling backend for any full replan
	// the admission falls back to (auto, placer, greedy, smt,
	// smt-incremental, cascade). Empty defaults to the daemon's policy:
	// cascade. The incremental fast path is backend-independent.
	Backend string `json:"backend,omitempty"`
}

// DecodeAdmit parses and validates a stream-admission request body. Routing
// (and thus full semantic validation) happens against the tenant's live
// network at execution time; here the requirements are checked standalone.
func DecodeAdmit(r io.Reader, limit int64) (*AdmitRequest, error) {
	if limit <= 0 {
		limit = defaultMaxBodyBytes
	}
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, fmt.Errorf("%w: reading body: %v", qcc.ErrBadConfig, err)
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", qcc.ErrBadConfig, limit)
	}
	var req AdmitRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("%w: %v", qcc.ErrBadConfig, err)
	}
	if len(req.Streams) == 0 {
		return nil, fmt.Errorf("%w: no streams to admit", qcc.ErrBadConfig)
	}
	if _, err := core.ParseBackend(req.Backend); err != nil {
		return nil, fmt.Errorf("%w: %v", qcc.ErrBadConfig, err)
	}
	seen := make(map[string]bool, len(req.Streams))
	for i := range req.Streams {
		s := &req.Streams[i]
		if err := s.Validate(i); err != nil {
			return nil, err
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("%w: duplicate stream id %q", qcc.ErrBadStream, s.ID)
		}
		seen[s.ID] = true
	}
	return &req, nil
}
