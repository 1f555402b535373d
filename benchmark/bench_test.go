package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// The metric and workload tables in main.go are what the harness prints;
// BENCHMARK.json is what the driver expects. They must be the same sets.
func TestManifestMatchesHarness(t *testing.T) {
	m := readManifest(t)
	var gotW, wantW [][2]string
	for _, w := range m.Workloads {
		gotW = append(gotW, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		wantW = append(wantW, [2]string{w.name, w.why})
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads: BENCHMARK.json has %v, harness has %v", gotW, wantW)
	}
	var gotE, gotL []metricDef
	for _, d := range m.EndToEnd {
		gotE = append(gotE, metricDef{d.Name, d.Unit, d.Better})
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range m.PerLayer {
		gotL = append(gotL, metricDef{d.Name, d.Unit, d.Better})
	}
	if !reflect.DeepEqual(gotE, endToEndDefs) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, harness has %v", gotE, endToEndDefs)
	}
	if !reflect.DeepEqual(gotL, perLayerDefs) {
		t.Errorf("per_layer: BENCHMARK.json has %v, harness has %v", gotL, perLayerDefs)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", d.name, d.unit)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) || !reflect.DeepEqual(m.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("paths %v, command %v", m.Paths, m.Command)
	}
}

func TestGeneratorIsDeterministicAndPinned(t *testing.T) {
	inputs := func(seed int64) map[string]string {
		out := map[string]string{
			"corpus-2200": hashParts(genCorpus(seed, 44)),
			"dense-40":    hashParts(genDense(seed)),
		}
		out["testbed-sim"] = hashParts(testbedParts(genTestbed(seed))...)
		for i := 0; i < cncdClients; i++ {
			out["cncd-mixed.tenant"+strconv.Itoa(i)] = hashParts(cncdParts(genCncd(seed, i))...)
		}
		return out
	}
	first := inputs(defaultSeed)
	if !reflect.DeepEqual(first, inputs(defaultSeed)) {
		t.Error("the same seed generated different inputs")
	}
	if !reflect.DeepEqual(first, pins) {
		t.Errorf("inputs at the default seed hash to %v, pinned %v", first, pins)
	}
	for name, h := range inputs(defaultSeed + 1) {
		if h == first[name] {
			t.Errorf("%s: another seed generated the same input", name)
		}
	}
}

// Every workload runs for 200 ms untraced and traced, fails no op, and
// prints exactly the declared metric names.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runOne(w, defaultSeed, 200*time.Millisecond, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", w.name, traced, rep.failed, rep.attempted, rep.firstErr)
			}
			var line struct {
				Correct bool
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(rep.line()), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || len(line.Metrics) != len(rep.defs()) {
				t.Errorf("%s traced=%v: correct=%v, %d metrics printed, %d declared", w.name, traced, line.Correct, len(line.Metrics), len(rep.defs()))
			}
			for _, d := range rep.defs() {
				if got, ok := line.Metrics[d.name]; !ok || got.Value == nil || got.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or without its unit %s", w.name, traced, d.name, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEndDefs {
					if rep.values[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", w.name, d.name, rep.values[d.name])
					}
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(out, w.name+".trace.json")); err != nil {
				t.Errorf("%s: no trace written: %v", w.name, err)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "journal-*")); len(left) != 0 {
		t.Errorf("journal directories left behind: %v", left)
	}
}
