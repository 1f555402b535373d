package qcc

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"etsn/internal/core"
	"etsn/internal/gcl"
	"etsn/internal/model"
)

// benchmarkDoc returns one of the two planning inputs of benchmark/ at its
// default seed (60802), committed gzipped under testdata: corpus-2200
// (44 cells, 2200 TCT + 44 ECT, 620 links) or dense-40 (40 TCT at 75 % on
// four switches, ~80 slots a link).
func benchmarkDoc(tb testing.TB, name string) []byte {
	tb.Helper()
	f, err := os.Open("testdata/" + name + ".json.gz")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		tb.Fatal(err)
	}
	doc, err := io.ReadAll(zr)
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

func computeDoc(tb testing.TB, doc []byte) *Deployment {
	tb.Helper()
	cfg, err := Parse(doc)
	if err != nil {
		tb.Fatal(err)
	}
	dep, err := Compute(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return dep
}

// wantEncodingJSON holds the encoder to its contract: the bytes
// json.Marshal writes for the typed form.
func wantEncodingJSON(t *testing.T, dep *Deployment) []byte {
	t.Helper()
	want, err := json.Marshal(dep.Export())
	if err != nil {
		t.Fatal(err)
	}
	got := dep.AppendJSON(nil)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-60, 0)
		t.Fatalf("encoder differs from encoding/json at byte %d (%d vs %d bytes):\n got  …%s\n want …%s",
			i, len(got), len(want), got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
	}
	return got
}

func TestExportMatchesEncodingJSON(t *testing.T) {
	sample := computeDoc(t, []byte(sampleConfig))
	// The strict SMT formulation cannot wrap slots past the period boundary
	// as the placer does: one MTU of TCT and two possibilities leave it room.
	smt := computeDoc(t, []byte(strings.NewReplacer(`"payload_bytes": 4500`, `"payload_bytes": 1500`,
		`{"n_prob": 5, "backend": "placer"}`, `{"n_prob": 2, "backend": "smt"}`).Replace(sampleConfig)))
	if smt.Result.SolverStats.Solves == 0 {
		t.Fatal("the smt-backed sample carries no solver block to encode")
	}
	// encoding/json writes the trailing omitempty counters only when set.
	smtSparse := *smt
	res := *smt.Result
	res.SolverStats.Restarts, res.SolverStats.TheoryProps = 0, 7
	smtSparse.Result = &res

	link := model.LinkID{From: "A", To: "B"}
	emptySchedule := &Deployment{Result: &core.Result{Schedule: model.NewSchedule()}}
	emptyGCL := &Deployment{
		Result: &core.Result{Schedule: model.NewSchedule()},
		GCLs:   map[model.LinkID]*gcl.PortGCL{link: {Link: link, Cycle: 1000}},
	}
	emptyGCL.Result.Schedule.AddSlot(model.FrameSlot{Stream: "s", Link: link, Length: 1, Period: 10, Epoch: 2})

	for _, c := range []struct {
		name string
		dep  *Deployment
	}{
		{"sample", sample},
		{"dense-40", computeDoc(t, benchmarkDoc(t, "dense-40"))},
		{"corpus-2200", computeDoc(t, benchmarkDoc(t, "corpus-2200"))},
		{"smt solver block", smt},
		{"smt solver block, sparse", &smtSparse},
		{"empty schedule", emptySchedule},
		{"empty gate program", emptyGCL},
	} {
		t.Run(c.name, func(t *testing.T) {
			out := wantEncodingJSON(t, c.dep)
			if _, err := ParseDeployment(bytes.NewReader(out)); err != nil {
				t.Fatalf("ParseDeployment: %v", err)
			}
			var buf bytes.Buffer
			if err := c.dep.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), append(out, '\n')) {
				t.Fatal("WriteJSON is not AppendJSON plus a newline")
			}
			// Appending to a caller's buffer leaves what it held alone.
			if got := c.dep.AppendJSON([]byte("x")); !bytes.Equal(got[1:], out) || got[0] != 'x' {
				t.Fatal("AppendJSON(dst) does not append")
			}
		})
	}
	if got := string(emptySchedule.AppendJSON(nil)); !strings.Contains(got, `"schedule":null,"gcls":null`) {
		t.Fatalf("empty deployment = %s", got)
	}
	if got := string(emptyGCL.AppendJSON(nil)); !strings.Contains(got, `"entries":null`) || !strings.Contains(got, `"link":"A-\u003eB"`) {
		t.Fatalf("empty gate program = %s", got)
	}
}

// TestBenchmarkPlansPinned pins the plans of the two planning workloads of
// benchmark/: SHA-256 of json.Marshal of the parsed export, recorded at
// 613a09b (the last commit that exported through encoding/json) before the
// encoder, the verifier sweep and the slices.SortFunc conversions landed.
// Any of them changing a slot, a tie order or a gate entry moves a hash.
func TestBenchmarkPlansPinned(t *testing.T) {
	for name, want := range map[string]string{
		"corpus-2200": "a60bf2118dd33019962f9072d87563783b437b1a88acfe1f24608b323b9b35c8",
		"dense-40":    "69b11c4542b7c4c20bee181d40fa4e77c194eed564aadc2fb2f79fd62f2671e8",
	} {
		dep := computeDoc(t, benchmarkDoc(t, name))
		var buf bytes.Buffer
		if err := dep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		exp, err := ParseDeployment(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Validate(dep.Network); err != nil {
			t.Fatal(err)
		}
		canon, err := json.Marshal(exp)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(canon)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: parsed export hashes to %s, pinned %s", name, got, want)
		}
	}
}

// FuzzExportStreamIDs drives hostile stream and node names through the
// encoder: whatever encoding/json escapes (quotes, backslashes, <>&,
// control bytes, U+2028/U+2029) or replaces (invalid UTF-8) the encoder must
// write identically, and the document must read back to the typed form.
func FuzzExportStreamIDs(f *testing.F) {
	f.Add("s1", "D1", "SW1")
	f.Add(`a"b\c`, "<D>&", "x\x00\x1f\x7f\b\f\n\r\ty")
	f.Add("sep\u2028\u2029", "\xff\xfe", "é世\xc3")
	f.Add("", "->", "\xe2\x80")
	f.Fuzz(func(t *testing.T, stream, from, to string) {
		link := model.LinkID{From: model.NodeID(from), To: model.NodeID(to)}
		sched := model.NewSchedule()
		sched.AddSlot(model.FrameSlot{Stream: model.StreamID(stream), Link: link,
			Index: 1, Offset: 5, Length: 10, Period: 100, Priority: 3, Shared: true})
		dep := &Deployment{
			Result: &core.Result{Schedule: sched},
			GCLs: map[model.LinkID]*gcl.PortGCL{link: {Link: link, Cycle: 100,
				Entries: []gcl.Entry{{Duration: 100, Gates: 0xff}}}},
		}
		want, err := json.Marshal(dep.Export())
		if err != nil {
			t.Fatal(err)
		}
		got := dep.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder differs from encoding/json:\n got  %s\n want %s", got, want)
		}
		back, err := ParseDeployment(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("ParseDeployment: %v", err)
		}
		// What reads back is the typed form, each invalid byte replaced by
		// U+FFFD — the conversion through []rune.
		wantExp := dep.Export()
		wantExp.Schedule[0].Link = string([]rune(wantExp.Schedule[0].Link))
		wantExp.Schedule[0].Slots[0].Stream = string([]rune(stream))
		wantExp.GCLs[0].Link = wantExp.Schedule[0].Link
		if !reflect.DeepEqual(back, wantExp) {
			t.Fatalf("export does not round-trip:\n wrote %+v\n read  %+v", wantExp, back)
		}
	})
}

// BenchmarkExport encodes the corpus-2200 deployment (2244 requirements,
// 620 links, a 1.3 MB document); bytes/op is the document size.
func BenchmarkExport(b *testing.B) {
	dep := computeDoc(b, benchmarkDoc(b, "corpus-2200"))
	b.SetBytes(int64(len(dep.AppendJSON(nil))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := dep.AppendJSON(nil); len(out) == 0 {
			b.Fatal("empty export")
		}
	}
}
