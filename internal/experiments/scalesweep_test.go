package experiments

import (
	"strings"
	"testing"

	"etsn/internal/core"
)

// TestCorpusProblemShape checks the corpus builder: cell-local traffic and
// unique stream IDs in both families.
func TestCorpusProblemShape(t *testing.T) {
	for _, family := range CorpusFamilies {
		p, err := corpusProblem(family, 3, DefaultSeed)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if got, want := len(p.TCT), 3*CorpusStreamsPerCell; got != want {
			t.Fatalf("%s: %d TCT streams, want %d", family, got, want)
		}
		if len(p.ECT) != 3 {
			t.Fatalf("%s: %d ECT streams, want 3", family, len(p.ECT))
		}
		seen := map[string]bool{}
		for _, s := range p.TCT {
			if seen[string(s.ID)] {
				t.Fatalf("%s: duplicate stream ID %s", family, s.ID)
			}
			seen[string(s.ID)] = true
			// Cell-local: every path link must stay on the stream's own
			// cell switch.
			cell := strings.SplitN(string(s.ID), "-", 2)[0] // "c00"
			sw := "EDGE" + strings.TrimLeft(cell[1:], "0")
			if sw == "EDGE" {
				sw = "EDGE0"
			}
			for _, lid := range s.Path {
				if string(lid.From) != sw && string(lid.To) != sw {
					t.Fatalf("%s: stream %s leaves its cell: link %v", family, s.ID, lid)
				}
			}
		}
	}
}

// TestCorpusSolveVerifies solves one small grid point and checks the
// invariant the sweep gate relies on: a verifier-clean plan.
func TestCorpusSolveVerifies(t *testing.T) {
	for _, family := range CorpusFamilies {
		p, res, _, err := corpusSolve(family, 3, DefaultSeed)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if vs := core.Verify(p.Network, res); len(vs) > 0 {
			t.Fatalf("%s: plan has %d violations, first: %s", family, len(vs), vs[0])
		}
	}
}

// TestValidateScaleGates exercises the artifact validator on the scale
// section: a healthy sweep passes, and each gate trips on the exact
// regression it guards.
func TestValidateScaleGates(t *testing.T) {
	healthy := func() *BenchArtifact {
		return &BenchArtifact{
			Experiment: "scale",
			WallMs:     10,
			Sim:        BenchSim{Events: 1, EventsPerSec: 1, Delivered: 1},
			Scale: &BenchScale{
				Cpus:           1,
				StreamsPerCell: CorpusStreamsPerCell,
				Points: []BenchScalePoint{
					{Family: "tree", Cells: 22, Streams: 1100, WallUs: 25_000, Verified: true},
					{Family: "tree", Cells: 44, Streams: 2200, WallUs: 50_000, Verified: true},
				},
			},
		}
	}
	if err := healthy().Validate(); err != nil {
		t.Fatalf("healthy artifact rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*BenchArtifact)
		want   string
	}{
		{"unverified", func(a *BenchArtifact) { a.Scale.Points[1].Verified = false }, "failed verification"},
		{"no wall", func(a *BenchArtifact) { a.Scale.Points[0].WallUs = 0 }, "non-positive wall"},
		{"too small", func(a *BenchArtifact) { a.Scale.Points[1].Streams = 1999 }, "tops out"},
		{"superlinear", func(a *BenchArtifact) { a.Scale.Points[1].WallUs = 75_000 }, "superlinear placement"},
		{"no half-size point", func(a *BenchArtifact) { a.Scale.Points[0].Streams = 1000 }, "no point at half"},
	}
	for _, tc := range cases {
		a := healthy()
		tc.mutate(a)
		err := a.Validate()
		if err == nil {
			t.Fatalf("%s: validator accepted a broken artifact", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestPlanFingerprintsPinned pins the placer's plans to the values the
// commit before the slot-table refactor produced: placer bookkeeping may
// change, first-fit order and every offset may not. Both corpus families
// hash alike because the traffic is cell-local and identically seeded, and
// the fingerprint does not cover the topology.
func TestPlanFingerprintsPinned(t *testing.T) {
	for _, family := range CorpusFamilies {
		_, res, _, err := corpusSolve(family, 44, DefaultSeed)
		if err != nil {
			t.Fatalf("%s/44: %v", family, err)
		}
		if fp, want := PlanFingerprint(res), "91eb59eb66879441"; fp != want {
			t.Errorf("%s/44 fingerprint %s, want %s", family, fp, want)
		}
	}
	// Spread placement with shared reserves on the dense Sec. VI-C instance:
	// every stream is placed with the undo log armed and ~80 slots per link
	// to scan.
	scen, err := NewSimulationScenario(0.75, 5, 1, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Schedule(scen.Problem().Core())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := PlanFingerprint(res), "ba3a39b83a81cbef"; got != want {
		t.Errorf("dense spread fingerprint %s, want %s", got, want)
	}
}
