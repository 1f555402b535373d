package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"etsn/internal/model"
	"etsn/internal/obs"
)

// zeroProp drops every hop's propagation delay from the instance the
// stages solve; Verify still reads the network's.
func zeroProp(inst *instance) {
	for i := range inst.hops {
		for j := range inst.hops[i] {
			inst.hops[i][j].prop = 0
		}
	}
}

// propProblem is one TCT stream over two hops that each carry 20 us of
// propagation delay.
func propProblem(t *testing.T) *Problem {
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
		if err := n.AddLink(d, "SW1", model.LinkConfig{Bandwidth: 100_000_000, PropDelay: 20 * time.Microsecond}); err != nil {
			t.Fatal(err)
		}
	}
	return &Problem{
		Network: n,
		TCT: []*model.Stream{{ID: "s1", Path: mustPath(t, n, "D1", "D2"), E2E: time.Millisecond,
			LengthBytes: model.MTUBytes, Period: time.Millisecond, Type: model.StreamDet}},
		Opts: Options{Backend: BackendCascade},
	}
}

// TestCascadeVerifierRejectsEveryStage pins the check qcc.Compute and
// faults' full replan rely on when they skip their own Verify on a
// Verified result: a stage whose plan breaks a constraint counts as that
// stage failing, and a cascade whose every stage does so returns an error,
// never a plan.
func TestCascadeVerifierRejectsEveryStage(t *testing.T) {
	p := propProblem(t)
	opts := p.Opts.withDefaults()
	opts.Obs = obs.NewRegistry()
	inst, err := buildInstance(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	zeroProp(inst)
	for _, b := range DefaultCascade() {
		res, err := solveBackend(context.Background(), inst, b)
		if err != nil {
			t.Fatalf("%v on the zero-prop instance: %v", b, err)
		}
		if vs := Verify(p.Network, res); len(vs) == 0 {
			t.Fatalf("%v's zero-prop plan passes Verify; the test would prove nothing", b)
		}
	}

	res, err := solveCascade(context.Background(), inst)
	if res != nil || !errors.Is(err, ErrBudget) {
		t.Fatalf("cascade over plans the verifier rejects = %v, %v; want no plan and ErrBudget", res, err)
	}
	for _, b := range DefaultCascade() {
		name := `etsn_backend_verify_rejects_total{backend="` + b.String() + `"}`
		if got := opts.Obs.Counter(name).Value(); got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}

	// The same instance with its delays kept passes, and says so.
	inst, err = buildInstance(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err = solveCascade(context.Background(), inst)
	if err != nil || !res.Verified {
		t.Fatalf("cascade on the true instance = %+v, %v; want a Verified plan", res, err)
	}
}
