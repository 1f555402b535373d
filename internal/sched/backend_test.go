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

// TestBackendsSolve runs every built-in Backend implementation over a tiny
// problem: each must return a verifier-clean plan, leave the caller's
// options untouched, and report a stable name.
func TestBackendsSolve(t *testing.T) {
	for _, b := range Backends() {
		t.Run(b.Name(), func(t *testing.T) {
			n, p := backendProblem(t)
			res, err := b.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if vs := core.Verify(n, res); len(vs) != 0 {
				t.Fatalf("%d violations, first: %s", len(vs), vs[0])
			}
			if p.Opts.Backend != 0 {
				t.Fatalf("Solve mutated caller options: Backend = %v", p.Opts.Backend)
			}
			if got, err := BackendByName(b.Name()); err != nil || got.Name() != b.Name() {
				t.Fatalf("BackendByName(%q) = %v, %v", b.Name(), got, err)
			}
		})
	}
}

// TestBackendCapabilities pins the advertised guarantees the cascade's
// error chain depends on: the SMT backends are the exact anchors,
// everything else is a heuristic whose failures carry no proof.
func TestBackendCapabilities(t *testing.T) {
	for _, b := range Backends() {
		exact := b.Capabilities().Exact
		wantExact := b.Name() == "smt" || b.Name() == "smt-incremental"
		if exact != wantExact {
			t.Errorf("backend %s: Exact = %v, want %v", b.Name(), exact, wantExact)
		}
	}
}
