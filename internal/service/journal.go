package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"

	"etsn/internal/qcc"
)

// The job journal is the daemon's write-ahead log: every job transition is
// appended (and fsynced) to journal.jsonl under the data directory BEFORE
// the transition is acknowledged to the client. A `kill -9` at any point
// therefore loses at most work, never acknowledged state: on restart,
// Replay folds the log back into (1) the terminal history — every done
// job's plan version, export, and the tenant's cumulative effective config
// — and (2) the set of jobs that were accepted but never finished, which
// the server re-enqueues.
//
// Record kinds and their WAL roles:
//
//	submitted  job accepted (202 sent after the fsync) — payload included
//	started    a worker picked the job up (informational)
//	done       plan version produced — export + effective config included
//	failed     terminal failure with its class
//	parked     graceful drain interrupted the job; resume on restart
//
// A torn final line (the crash landed mid-append) is expected and ignored;
// any earlier corruption is an error. The journal is append-only; plan
// exports ride in the done records, so serving versioned plans after a
// restart needs no re-solving.
type journalRecord struct {
	Seq     int64           `json:"seq"`
	Kind    string          `json:"kind"`
	Job     string          `json:"job"`
	Tenant  string          `json:"tenant,omitempty"`
	JobKind JobKind         `json:"job_kind,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// DeadlineMs preserves the job's deadline across replay.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Version and Export describe the produced plan (kind "done").
	Version int             `json:"version,omitempty"`
	Export  json.RawMessage `json:"export,omitempty"`
	// Effective is the tenant's cumulative configuration after this job:
	// base config plus every admitted stream. Replay rebuilds live
	// controllers from it deterministically.
	Effective json.RawMessage `json:"effective,omitempty"`
	Changed   []string        `json:"changed_ports,omitempty"`
	ShedTCT   []string        `json:"shed_tct,omitempty"`
	ShedBE    []string        `json:"shed_be,omitempty"`
	Class     string          `json:"class,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// journal is the append side. Appends are serialized and fsynced; a closed
// journal drops writes (the process is exiting and the records would be
// re-derived on replay anyway).
type journal struct {
	mu     sync.Mutex
	f      *os.File
	seq    int64
	closed bool
	buf    []byte // the last line written, reused for the next
}

const journalName = "journal.jsonl"

// openJournal opens (creating if needed) the journal in dir for appending.
func openJournal(dir string, lastSeq int64) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal open: %w", err)
	}
	return &journal{f: f, seq: lastSeq}, nil
}

// append writes one record durably. The sequence number is assigned here.
func (j *journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.seq++
	rec.Seq = j.seq
	data, err := appendRecord(j.buf[:0], &rec)
	if err != nil {
		return fmt.Errorf("journal encode: %w", err)
	}
	data = append(data, '\n')
	j.buf = data
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal sync: %w", err)
	}
	return nil
}

// appendRecord appends rec as json.Marshal(rec) would write it, byte for
// byte (replay stays encoding/json). The envelope is written by hand so that
// Export and Effective can be spliced in: both are compact, HTML-escaped
// JSON this process encoded itself (qcc.Deployment.AppendJSON, json.Marshal
// of the effective config), and json.Marshal would scan, validate and
// re-compact every byte of them again under the journal lock. Payload is
// the client's bytes and still takes that pass.
func appendRecord(dst []byte, rec *journalRecord) ([]byte, error) {
	dst = slices.Grow(dst, 256+len(rec.Payload)+len(rec.Export)+len(rec.Effective))
	dst = strconv.AppendInt(append(dst, `{"seq":`...), rec.Seq, 10)
	dst = qcc.AppendJSONString(append(dst, `,"kind":`...), rec.Kind)
	dst = qcc.AppendJSONString(append(dst, `,"job":`...), rec.Job)
	dst = appendStringField(dst, `,"tenant":`, rec.Tenant)
	dst = appendStringField(dst, `,"job_kind":`, string(rec.JobKind))
	if len(rec.Payload) > 0 {
		payload, err := json.Marshal(rec.Payload)
		if err != nil {
			return nil, err
		}
		dst = append(append(dst, `,"payload":`...), payload...)
	}
	if rec.DeadlineMs != 0 {
		dst = strconv.AppendInt(append(dst, `,"deadline_ms":`...), rec.DeadlineMs, 10)
	}
	if rec.Version != 0 {
		dst = strconv.AppendInt(append(dst, `,"version":`...), int64(rec.Version), 10)
	}
	if len(rec.Export) > 0 {
		dst = append(append(dst, `,"export":`...), rec.Export...)
	}
	if len(rec.Effective) > 0 {
		dst = append(append(dst, `,"effective":`...), rec.Effective...)
	}
	dst = appendStringsField(dst, `,"changed_ports":`, rec.Changed)
	dst = appendStringsField(dst, `,"shed_tct":`, rec.ShedTCT)
	dst = appendStringsField(dst, `,"shed_be":`, rec.ShedBE)
	dst = appendStringField(dst, `,"class":`, rec.Class)
	dst = appendStringField(dst, `,"error":`, rec.Error)
	return append(dst, '}'), nil
}

// appendStringField and appendStringsField write `omitempty` fields.
func appendStringField(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return qcc.AppendJSONString(append(dst, key...), v)
}

func appendStringsField(dst []byte, key string, vs []string) []byte {
	if len(vs) == 0 {
		return dst
	}
	dst = append(dst, key...)
	for i, v := range vs {
		if i == 0 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		dst = qcc.AppendJSONString(dst, v)
	}
	return append(dst, ']')
}

func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.closed {
		j.closed = true
		_ = j.f.Close()
	}
}

// replayedJob is one job reconstructed from the log.
type replayedJob struct {
	rec      journalRecord // the submitted record
	terminal string        // "", "done", "failed", or "parked"
	doneRec  *journalRecord
	class    string
	errText  string
	started  bool
}

// replayState is everything Replay recovers from a journal.
type replayState struct {
	lastSeq int64
	// jobs in submission order.
	jobs []*replayedJob
	// tenantDone maps each tenant to its done records in version order.
	tenantDone map[string][]*journalRecord
}

// pending returns the replayed jobs that never reached a terminal state, in
// submission order — the re-enqueue set.
func (s *replayState) pending() []*replayedJob {
	var out []*replayedJob
	for _, rj := range s.jobs {
		if rj.terminal == "" || rj.terminal == "parked" {
			out = append(out, rj)
		}
	}
	return out
}

// replayJournal reads dir's journal, tolerating a torn final line. A
// missing journal is an empty state.
func replayJournal(dir string) (*replayState, error) {
	st := &replayState{tenantDone: make(map[string][]*journalRecord)}
	f, err := os.Open(filepath.Join(dir, journalName))
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal open: %w", err)
	}
	defer f.Close()

	byID := make(map[string]*replayedJob)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	var prevBad bool
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if prevBad {
			// A malformed record followed by more records is corruption,
			// not a torn tail.
			return nil, fmt.Errorf("journal: malformed record at line %d", lineNo-1)
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			prevBad = true
			continue
		}
		if rec.Seq <= st.lastSeq {
			return nil, fmt.Errorf("journal: sequence went backwards at line %d (%d after %d)",
				lineNo, rec.Seq, st.lastSeq)
		}
		st.lastSeq = rec.Seq
		switch rec.Kind {
		case "submitted":
			if byID[rec.Job] != nil {
				return nil, fmt.Errorf("journal: job %s submitted twice", rec.Job)
			}
			rj := &replayedJob{rec: rec}
			byID[rec.Job] = rj
			st.jobs = append(st.jobs, rj)
		case "started":
			if rj := byID[rec.Job]; rj != nil {
				rj.started = true
			}
		case "done":
			rj := byID[rec.Job]
			if rj == nil {
				return nil, fmt.Errorf("journal: job %s done without submission", rec.Job)
			}
			if rj.terminal == "done" || rj.terminal == "failed" {
				return nil, fmt.Errorf("journal: job %s finished twice", rec.Job)
			}
			rj.terminal = "done"
			cp := rec
			rj.doneRec = &cp
			st.tenantDone[rec.Tenant] = append(st.tenantDone[rec.Tenant], &cp)
		case "failed":
			rj := byID[rec.Job]
			if rj == nil {
				return nil, fmt.Errorf("journal: job %s failed without submission", rec.Job)
			}
			if rj.terminal == "done" || rj.terminal == "failed" {
				return nil, fmt.Errorf("journal: job %s finished twice", rec.Job)
			}
			rj.terminal = "failed"
			rj.class = rec.Class
			rj.errText = rec.Error
		case "parked":
			if rj := byID[rec.Job]; rj != nil && rj.terminal == "" {
				rj.terminal = "parked"
			}
		default:
			return nil, fmt.Errorf("journal: unknown record kind %q at line %d", rec.Kind, lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal read: %w", err)
	}
	for _, recs := range st.tenantDone {
		sort.Slice(recs, func(i, k int) bool { return recs[i].Version < recs[k].Version })
	}
	return st, nil
}
