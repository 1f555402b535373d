package service

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"etsn/internal/qcc"
)

// journalFixture copies a testdata journal, optionally edited, into a fresh
// data directory.
func journalFixture(t *testing.T, name string, edit func([]byte) []byte) string {
	t.Helper()
	fixture, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		fixture = edit(fixture)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReplayJournalWithRemovedOptions: a journal written while the scheduler
// still had the "decompose" and "portfolio" options (testdata, from the last
// commit that had them; the plan asked for both) replays to the same plan
// version and export, its effective config recomputes to that export byte
// for byte — and so does the same config with the two keys stripped — and
// the live controller rebuilt from it admits.
func TestReplayJournalWithRemovedOptions(t *testing.T) {
	dir := journalFixture(t, "journal-decompose-portfolio.jsonl", nil)
	st, err := replayJournal(dir)
	if err != nil || len(st.tenantDone["acme"]) != 1 {
		t.Fatalf("fixture: %v, done records %v", err, st)
	}
	done := st.tenantDone["acme"][0]
	const removed = `"portfolio":4,"decompose":true`
	if !bytes.Contains(done.Effective, []byte(removed)) {
		t.Fatalf("fixture's effective config does not carry the removed options: %s", done.Effective)
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

	stripped := bytes.Replace(done.Effective, []byte(","+removed), nil, 1)
	for name, doc := range map[string][]byte{"as journaled": done.Effective, "keys stripped": stripped} {
		cfg, err := qcc.Parse(doc)
		if err != nil {
			t.Fatalf("%s: effective config: %v", name, err)
		}
		dep, err := qcc.Compute(cfg)
		if err != nil {
			t.Fatalf("%s: Compute: %v", name, err)
		}
		if export := dep.AppendJSON(nil); !bytes.Equal(export, done.Export) {
			t.Fatalf("%s: recomputed export %s, journaled %s", name, export, done.Export)
		}
	}

	adm, err := s.Submit("acme", KindAdmit, []byte(admitBody))
	if err != nil {
		t.Fatalf("Submit admit: %v", err)
	}
	if snap := waitJob(t, adm); snap.State != JobDone || snap.Version != done.Version+1 {
		t.Fatalf("admit after replay: %+v", snap)
	}
}

// TestReplayJournalPinnedToRemovedBackend: a tenant whose journaled
// effective config pinned "anneal" (the same fixture with its backend
// rewritten) keeps serving the plan versions it has, but its live
// controller cannot be rebuilt — an admission fails as invalid input naming
// the valid backends — until the plan is re-submitted with one of them.
func TestReplayJournalPinnedToRemovedBackend(t *testing.T) {
	dir := journalFixture(t, "journal-decompose-portfolio.jsonl", func(b []byte) []byte {
		return bytes.ReplaceAll(b, []byte(`"backend":"cascade"`), []byte(`"backend":"anneal"`))
	})
	s := newTestServer(t, Config{DataDir: dir})
	defer s.Shutdown()

	pv, err := s.Plan("acme", 0)
	if err != nil || pv.Version != 1 || len(pv.Export) == 0 {
		t.Fatalf("Plan after replay: %+v, %v", pv, err)
	}

	adm, err := s.Submit("acme", KindAdmit, []byte(admitBody))
	if err != nil {
		t.Fatalf("Submit admit: %v", err)
	}
	snap := waitJob(t, adm)
	if snap.State != JobFailed || snap.Class != ClassInvalid.String() ||
		!strings.Contains(snap.Error, `unknown backend "anneal"`) ||
		!strings.Contains(snap.Error, "auto|placer|greedy|smt|smt-incremental|cascade") {
		t.Fatalf("admit against a tenant pinned to anneal: %+v", snap)
	}

	job, err := s.Submit("acme", KindPlan, []byte(planConfig))
	if err != nil {
		t.Fatalf("re-submit: %v", err)
	}
	if snap := waitJob(t, job); snap.State != JobDone || snap.Version != 2 {
		t.Fatalf("re-submitted plan: %+v", snap)
	}
	adm, err = s.Submit("acme", KindAdmit, []byte(admitBody))
	if err != nil {
		t.Fatalf("Submit admit: %v", err)
	}
	if snap := waitJob(t, adm); snap.State != JobDone || snap.Version != 3 {
		t.Fatalf("admit after re-submit: %+v", snap)
	}
}
