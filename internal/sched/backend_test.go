package sched

import (
	"context"
	"testing"
	"time"

	"etsn/internal/core"
	"etsn/internal/model"
)

func backendProblem(t *testing.T) (*model.Network, *core.Problem) {
	t.Helper()
	n := model.NewNetwork()
	for _, d := range []model.NodeID{"D1", "D2"} {
		if err := n.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddSwitch("SW1"); err != nil {
		t.Fatal(err)
	}
	for _, d := range []model.NodeID{"D1", "D2"} {
		if err := n.AddLink(d, "SW1", model.LinkConfig{Bandwidth: 100_000_000}); err != nil {
			t.Fatal(err)
		}
	}
	path, err := n.ShortestPath("D1", "D2")
	if err != nil {
		t.Fatal(err)
	}
	period := 4 * time.Millisecond
	return n, &core.Problem{
		Network: n,
		TCT: []*model.Stream{{
			ID: "s1", Path: path, Period: period, E2E: period,
			LengthBytes: model.MTUBytes, Type: model.StreamDet,
		}},
	}
}

// backendNames are the concrete strategies Problem.Backend can select, in
// cascade order, the cascade itself last.
var backendNames = []string{"placer", "greedy", "smt-incremental", "smt", "cascade"}

// TestBackendsSolve selects every backend through Problem.Backend over a
// tiny problem: each must return a verifier-clean plan produced by the
// backend asked for (the cascade's winner is its head, the placer).
func TestBackendsSolve(t *testing.T) {
	for _, name := range backendNames {
		t.Run(name, func(t *testing.T) {
			b, err := core.ParseBackend(name)
			if err != nil {
				t.Fatal(err)
			}
			n, cp := backendProblem(t)
			p := Problem{Network: n, TCT: cp.TCT, Backend: b}
			res, err := core.ScheduleContext(context.Background(), p.Core())
			if err != nil {
				t.Fatalf("Schedule: %v", err)
			}
			if vs := core.Verify(n, res); len(vs) != 0 {
				t.Fatalf("%d violations, first: %s", len(vs), vs[0])
			}
			want := b
			if b == core.BackendCascade {
				want = core.BackendPlacer
			}
			if res.BackendUsed != want {
				t.Fatalf("BackendUsed = %v, want %v", res.BackendUsed, want)
			}
		})
	}
}

// TestBackendCapabilities pins the advertised guarantees the cascade's
// error chain depends on: the SMT backends are the exact anchors,
// everything else is a heuristic whose failures carry no proof.
func TestBackendCapabilities(t *testing.T) {
	for _, name := range backendNames {
		b, err := core.ParseBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		wantExact := name == "smt" || name == "smt-incremental"
		if exact := b.Capabilities().Exact; exact != wantExact {
			t.Errorf("backend %s: Exact = %v, want %v", name, exact, wantExact)
		}
	}
}
