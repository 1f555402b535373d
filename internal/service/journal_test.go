package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"etsn/internal/qcc"
)

// TestJournalRoundTrip checks the basic WAL contract: append records, replay
// them, get the same state back.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	records := []journalRecord{
		{Kind: "submitted", Job: "j-1", Tenant: "a", JobKind: KindPlan, Payload: json.RawMessage(`{}`), DeadlineMs: 5000},
		{Kind: "started", Job: "j-1"},
		{Kind: "done", Job: "j-1", Tenant: "a", Version: 1, Export: json.RawMessage(`{"e":1}`), Effective: json.RawMessage(`{"c":1}`)},
		{Kind: "submitted", Job: "j-2", Tenant: "b", JobKind: KindAdmit, Payload: json.RawMessage(`{"streams":[]}`)},
		{Kind: "started", Job: "j-2"},
		{Kind: "parked", Job: "j-2"},
		{Kind: "submitted", Job: "j-3", Tenant: "a", JobKind: KindPlan, Payload: json.RawMessage(`{}`)},
		{Kind: "failed", Job: "j-3", Tenant: "a", Class: "infeasible", Error: "no"},
	}
	for _, r := range records {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.close()

	st, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.lastSeq != int64(len(records)) {
		t.Fatalf("lastSeq = %d", st.lastSeq)
	}
	if len(st.jobs) != 3 {
		t.Fatalf("jobs = %d", len(st.jobs))
	}
	pend := st.pending()
	if len(pend) != 1 || pend[0].rec.Job != "j-2" {
		t.Fatalf("pending = %+v", pend)
	}
	if len(st.tenantDone["a"]) != 1 || st.tenantDone["a"][0].Version != 1 {
		t.Fatalf("tenantDone = %+v", st.tenantDone)
	}
}

// TestJournalDoneAfterParkedWins encodes the at-least-once contract: a drain
// parks a job, the worker's result lands anyway, and replay must prefer the
// done record so the job is not run a second time.
func TestJournalDoneAfterParkedWins(t *testing.T) {
	dir := t.TempDir()
	j, _ := openJournal(dir, 0)
	for _, r := range []journalRecord{
		{Kind: "submitted", Job: "j-1", Tenant: "a", JobKind: KindPlan, Payload: json.RawMessage(`{}`)},
		{Kind: "parked", Job: "j-1"},
		{Kind: "done", Job: "j-1", Tenant: "a", Version: 1, Export: json.RawMessage(`{}`), Effective: json.RawMessage(`{}`)},
	} {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.close()
	st, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.pending()) != 0 {
		t.Fatalf("parked-then-done job still pending: %+v", st.pending())
	}
	if st.jobs[0].terminal != "done" {
		t.Fatalf("terminal = %q", st.jobs[0].terminal)
	}
}

func TestJournalRejectsCorruption(t *testing.T) {
	write := func(t *testing.T, lines ...string) string {
		dir := t.TempDir()
		var buf bytes.Buffer
		for _, l := range lines {
			buf.WriteString(l)
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(dir, journalName), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	// Garbage in the middle is corruption.
	dir := write(t,
		`{"seq":1,"kind":"submitted","job":"j-1","tenant":"a","job_kind":"plan","payload":{}}`,
		`{"seq":2,"kind":"done","job`,
		`{"seq":3,"kind":"failed","job":"j-1","class":"internal"}`)
	if _, err := replayJournal(dir); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
	// Sequence regression is corruption.
	dir = write(t,
		`{"seq":5,"kind":"submitted","job":"j-1","tenant":"a","job_kind":"plan","payload":{}}`,
		`{"seq":4,"kind":"started","job":"j-1"}`)
	if _, err := replayJournal(dir); err == nil {
		t.Fatal("sequence regression accepted")
	}
	// Double finish is corruption.
	dir = write(t,
		`{"seq":1,"kind":"submitted","job":"j-1","tenant":"a","job_kind":"plan","payload":{}}`,
		`{"seq":2,"kind":"failed","job":"j-1","class":"internal"}`,
		`{"seq":3,"kind":"done","job":"j-1","tenant":"a","version":1}`)
	if _, err := replayJournal(dir); err == nil {
		t.Fatal("double finish accepted")
	}
	// Terminal record for an unknown job is corruption.
	dir = write(t, `{"seq":1,"kind":"done","job":"j-9","tenant":"a","version":1}`)
	if _, err := replayJournal(dir); err == nil {
		t.Fatal("done without submission accepted")
	}
}

// TestJournalReplayTruncationProperty is the crash model: generate random
// valid journals, chop the file at every byte offset in the final record and
// at random offsets elsewhere in the tail, and require that replay (a) never
// errors when only the final line is damaged, and (b) reconstructs exactly
// the state of the complete-line prefix.
func TestJournalReplayTruncationProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		j, err := openJournal(dir, 0)
		if err != nil {
			t.Fatal(err)
		}

		// Random but transition-valid journal: jobs advance
		// submitted -> started -> {done, failed, parked[, done]}.
		type jobState struct {
			id       string
			terminal string
		}
		var jobs []*jobState
		nextID := 1
		nRecords := 3 + rng.Intn(25)
		for i := 0; i < nRecords; i++ {
			open := -1
			for k, js := range jobs {
				if js.terminal == "" || js.terminal == "parked" {
					open = k
					break
				}
			}
			if open == -1 || rng.Intn(3) == 0 {
				id := fmt.Sprintf("j-%d", nextID)
				nextID++
				jobs = append(jobs, &jobState{id: id})
				payload := json.RawMessage(fmt.Sprintf(`{"n":%d}`, rng.Intn(1000)))
				if err := j.append(journalRecord{Kind: "submitted", Job: id,
					Tenant: fmt.Sprintf("t%d", rng.Intn(3)), JobKind: KindPlan, Payload: payload}); err != nil {
					t.Fatal(err)
				}
				continue
			}
			js := jobs[open]
			switch rng.Intn(4) {
			case 0:
				_ = j.append(journalRecord{Kind: "started", Job: js.id})
			case 1:
				_ = j.append(journalRecord{Kind: "done", Job: js.id, Tenant: "t0",
					Version: 1 + rng.Intn(5), Export: json.RawMessage(`{}`), Effective: json.RawMessage(`{}`)})
				js.terminal = "done"
			case 2:
				if js.terminal == "parked" {
					_ = j.append(journalRecord{Kind: "started", Job: js.id})
				} else {
					_ = j.append(journalRecord{Kind: "failed", Job: js.id, Class: "timeout", Error: "x"})
					js.terminal = "failed"
				}
			case 3:
				if js.terminal != "parked" {
					_ = j.append(journalRecord{Kind: "parked", Job: js.id})
					js.terminal = "parked"
				}
			}
		}
		j.close()

		full, err := os.ReadFile(filepath.Join(dir, journalName))
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(full, []byte("\n"))

		// Truncation points: every prefix of the last record plus a few
		// random cuts anywhere in the file.
		cuts := []int{len(full)}
		lastStart := len(full) - len(lines[len(lines)-2]) // lines ends with an empty tail element
		for c := lastStart; c < len(full); c += 1 + rng.Intn(8) {
			cuts = append(cuts, c)
		}
		for k := 0; k < 5; k++ {
			cuts = append(cuts, rng.Intn(len(full)+1))
		}

		for _, cut := range cuts {
			tdir := t.TempDir()
			if err := os.WriteFile(filepath.Join(tdir, journalName), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			// The oracle: complete lines strictly before the cut.
			var wantSeq int64
			var wantJobs int
			off := 0
			for _, l := range lines {
				// A record survives the cut if its JSON content is intact —
				// losing only the trailing newline still parses.
				content := bytes.TrimSuffix(l, []byte("\n"))
				if len(l) == 0 || off+len(content) > cut {
					break
				}
				var rec journalRecord
				if err := json.Unmarshal(content, &rec); err != nil {
					t.Fatal(err)
				}
				wantSeq = rec.Seq
				if rec.Kind == "submitted" {
					wantJobs++
				}
				off += len(l)
			}
			st, err := replayJournal(tdir)
			if err != nil {
				t.Fatalf("seed %d cut %d: replay: %v", seed, cut, err)
			}
			if st.lastSeq != wantSeq {
				t.Fatalf("seed %d cut %d: lastSeq %d want %d", seed, cut, st.lastSeq, wantSeq)
			}
			if len(st.jobs) != wantJobs {
				t.Fatalf("seed %d cut %d: jobs %d want %d", seed, cut, len(st.jobs), wantJobs)
			}
		}
	}
}

// TestJournalLineMatchesEncodingJSON: the hand-written record envelope is
// json.Marshal(rec) byte for byte, for one record of every kind — so a
// journal written by this encoder replays on a build that marshals records
// with encoding/json and vice versa. The strings are hostile on purpose
// (tenant names and error texts are not ours), the payload is a client's
// (indented, unescaped '<'), the export is a real deployment's.
func TestJournalLineMatchesEncodingJSON(t *testing.T) {
	cfg, err := qcc.Parse([]byte(planConfig))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := qcc.Compute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	effective, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const hostile = "a\"b\\c<d>&e\x00\x1f\b\u2028\u2029\xff é"
	for _, rec := range []journalRecord{
		{Seq: 1, Kind: "submitted", Job: "j-1", Tenant: hostile, JobKind: KindPlan,
			Payload: json.RawMessage("{\n  \"note\": \"<&> \",\n  \"n\": [1, 2]\n}"), DeadlineMs: 30000},
		{Seq: 2, Kind: "submitted", Job: "j-2", Tenant: "acme", JobKind: KindAdmit, Payload: json.RawMessage(admitBody)},
		{Seq: 3, Kind: "started", Job: "j-1"},
		{Seq: 4, Kind: "done", Job: "j-1", Tenant: hostile, Version: 7, Export: dep.AppendJSON(nil),
			Effective: effective, Changed: []string{"D1->SW1", hostile}, ShedTCT: []string{"t<1>"}, ShedBE: []string{"b1", "b2"}},
		{Seq: 5, Kind: "done", Job: "j-2", Tenant: "acme", Version: 1, Export: json.RawMessage(`{}`),
			Effective: json.RawMessage(`{}`), Changed: []string{}},
		{Seq: 6, Kind: "failed", Job: "j-3", Tenant: "acme", Class: ClassInfeasible.String(), Error: "no <schedule>: " + hostile},
		{Seq: 1 << 40, Kind: "parked", Job: "j-4", Tenant: "acme"},
		{},
	} {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendRecord(nil, &rec)
		if err != nil {
			t.Fatalf("%s: %v", rec.Kind, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s record:\n got  %.300s\n want %.300s", rec.Kind, got, want)
		}
	}

	// A payload that is not JSON is refused, as json.Marshal refuses it.
	if _, err := appendRecord(nil, &journalRecord{Kind: "submitted", Payload: json.RawMessage(`{"a":`)}); err == nil {
		t.Fatal("malformed payload encoded")
	}
}
