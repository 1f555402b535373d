package sim_test

import (
	"testing"
	"time"

	"etsn/internal/experiments"
	"etsn/internal/obs"
	"etsn/internal/sched"
	"etsn/internal/sim"
)

// TestEventLoopBudgets pins the two ratios the event loop is built around,
// on the Sec. VI-B testbed cell under each method: events processed per
// transmission (a port wake-up that cannot do anything is not scheduled),
// and heap allocations per processed event with instrumentation and
// attribution off (deliveries, wakes and TCT emissions are value-typed
// events, frames come from the run's arena).
func TestEventLoopBudgets(t *testing.T) {
	const (
		maxEventsPerTx    = 2.75 // 3.35 before wake coalescing, 2.38 measured
		maxAllocsPerEvent = 0.3  // 1.40 with a closure per event, 0.13 measured
	)
	scen, err := experiments.NewTestbedScenario(0.75, experiments.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var events, transmissions int64
	var allocs float64
	for _, method := range []sched.Method{sched.MethodETSN, sched.MethodPERIOD, sched.MethodAVB} {
		plan, err := sched.Build(method, scen.Problem(), 1)
		if err != nil {
			t.Fatalf("%s plan: %v", method, err)
		}
		run := func(reg *obs.Registry) {
			if _, err := plan.SimulateOpts(scen.Network, sched.SimOptions{ECT: scen.ECT, BE: scen.BE,
				Duration: time.Second, Seed: experiments.DefaultSeed, Obs: reg}); err != nil {
				t.Fatalf("%s: %v", method, err)
			}
		}
		reg := obs.NewRegistry()
		run(reg)
		events += reg.CounterValue("etsn_sim_events_total")
		transmissions += reg.CounterValue("etsn_sim_gate_opens_total")
		allocs += testing.AllocsPerRun(1, func() { run(nil) })
	}
	if transmissions == 0 {
		t.Fatal("no transmissions counted")
	}
	if ratio := float64(events) / float64(transmissions); ratio > maxEventsPerTx {
		t.Errorf("%d events for %d transmissions = %.2f per transmission, budget %.2f",
			events, transmissions, ratio, maxEventsPerTx)
	}
	if perEvent := allocs / float64(events); perEvent > maxAllocsPerEvent {
		t.Errorf("%.0f allocations for %d events = %.2f per event, budget %.2f",
			allocs, events, perEvent, maxAllocsPerEvent)
	}
}

// TestEventSizeBudget pins the size of an event-heap entry: every push and
// pop copies one per heap level.
func TestEventSizeBudget(t *testing.T) {
	if sim.EventBytes > 48 {
		t.Errorf("event is %d bytes, budget 48", sim.EventBytes)
	}
}
