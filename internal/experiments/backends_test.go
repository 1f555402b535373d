package experiments

import (
	"strings"
	"testing"
)

// TestValidateBackendsGates exercises the artifact validator on the
// backends section: a healthy sweep passes, and each cascade gate trips on
// the regression it guards — above all a cascade that ran more than its
// winner.
func TestValidateBackendsGates(t *testing.T) {
	healthy := func() *BenchArtifact {
		return &BenchArtifact{
			Experiment: "backends",
			WallMs:     10,
			Backends: &BenchBackends{
				TimeoutMs: 2000,
				Points: []BenchBackendPoint{
					{Load: 0.75, Backend: "placer", WallUs: 1_000, Feasible: true, Verified: true},
					{Load: 0.75, Backend: "greedy", WallUs: 400, Feasible: true, Verified: true},
					{Load: 0.75, Backend: "smt-incremental", WallUs: 280_000, Err: "infeasible"},
				},
				Cascades: []BenchBackendCascade{
					{Load: 0.75, WallUs: 2_500, Winner: "placer", Verified: true},
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
		{"no cascades", func(a *BenchArtifact) { a.Backends.Cascades = nil }, "0 cascades"},
		{"unverified winner", func(a *BenchArtifact) { a.Backends.Cascades[0].Verified = false }, "unverified plan"},
		{"unknown winner", func(a *BenchArtifact) { a.Backends.Cascades[0].Winner = "tabu" }, "no feasible standalone point"},
		{"winner infeasible standalone", func(a *BenchArtifact) { a.Backends.Cascades[0].Winner = "smt-incremental" }, "no feasible standalone point"},
		// 2 x 1000 us + 5000 us: a loser's solve on top of the winner's no longer fits.
		{"ran past the winner", func(a *BenchArtifact) { a.Backends.Cascades[0].WallUs = 7_001 }, "exceeds overhead bound"},
		// The bound follows the winner, not the fastest backend at that load.
		{"measured against its own winner", func(a *BenchArtifact) {
			a.Backends.Cascades[0].Winner, a.Backends.Cascades[0].WallUs = "greedy", 5_801
		}, "winner greedy standalone 400us"},
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
