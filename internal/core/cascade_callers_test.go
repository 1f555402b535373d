package core_test

import (
	"errors"
	"testing"

	"etsn/internal/core"
	"etsn/internal/faults"
	"etsn/internal/obs"
	"etsn/internal/qcc"
)

// propConfig is one sharing TCT stream over two hops that each carry 20 us
// of propagation delay, planned by the cascade. Sharing streams are never
// shed, so a failing replan cannot degrade its way to an empty plan.
const propConfig = `{
  "network": {
    "devices": ["D1", "D2"],
    "switches": ["SW1"],
    "links": [
      {"a": "D1", "b": "SW1", "bandwidth_bps": 100000000, "prop_delay_ns": 20000},
      {"a": "D2", "b": "SW1", "bandwidth_bps": 100000000, "prop_delay_ns": 20000}
    ]
  },
  "streams": [
    {"id": "s1", "talker": "D1", "listener": "D2", "type": "time-triggered",
     "period_us": 1000, "max_latency_us": 1000, "payload_bytes": 1500, "share": true}
  ],
  "options": {"backend": "cascade"}
}`

// rejects sums the cascade's verifier rejections over its default stages.
func rejects(reg *obs.Registry) int64 {
	var n int64
	for _, b := range core.DefaultCascade() {
		n += reg.Counter(`etsn_backend_verify_rejects_total{backend="` + b.String() + `"}`).Value()
	}
	return n
}

// TestVerifiedPlanCallersRejectWithTheCascade: qcc.Compute and faults'
// full replan skip their own Verify on a cascade plan, so the cascade's
// check is the only one such a plan gets. When every stage's plan breaks
// the adjacent-link constraint, neither caller produces a deployment.
func TestVerifiedPlanCallersRejectWithTheCascade(t *testing.T) {
	cfg, err := qcc.Parse([]byte(propConfig))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.NewRegistry()
	dep, err := qcc.Compute(cfg)
	if err != nil || !dep.Result.Verified {
		t.Fatalf("Compute on the true instance: %v (want a Verified plan)", err)
	}
	ctrl, err := faults.NewController(dep.Problem, dep.Result, dep.GCLs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Obs = cfg.Obs

	restore := core.ZeroPropInCascade()
	defer restore()

	if dep, err := qcc.Compute(cfg); err == nil || dep != nil {
		t.Fatalf("Compute over plans the verifier rejects = %v, %v; want an error and no deployment", dep, err)
	}
	if n := rejects(cfg.Obs); n != int64(len(core.DefaultCascade())) {
		t.Fatalf("Compute: %d verifier rejections, want one per stage", n)
	}

	before := rejects(cfg.Obs)
	rec, err := ctrl.Restore()
	if !errors.Is(err, faults.ErrUnrecoverable) || rec != nil {
		t.Fatalf("full replan over plans the verifier rejects = %+v, %v; want ErrUnrecoverable and no recovery", rec, err)
	}
	if n := rejects(cfg.Obs) - before; n == 0 || n%int64(len(core.DefaultCascade())) != 0 {
		t.Fatalf("full replan: %d verifier rejections, want every stage of every attempt", n)
	}
	if _, res, _ := ctrl.Deployed(); res != dep.Result {
		t.Fatal("a failed full replan moved the deployed plan")
	}
}
