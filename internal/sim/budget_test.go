package sim_test

import (
	"reflect"
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
// attribution off (events are pointer-free table indexes, source ticks
// included, and dead frames are recycled).
func TestEventLoopBudgets(t *testing.T) {
	const (
		maxEventsPerTx    = 2.75 // 3.35 before wake coalescing, 2.38 measured
		maxAllocsPerEvent = 0.1  // 1.40 with a closure per event, 0.13 with tick closures and no frame reuse
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
	t.Logf("%.2f events per transmission, %.3f allocations per event",
		float64(events)/float64(transmissions), allocs/float64(events))
	if ratio := float64(events) / float64(transmissions); ratio > maxEventsPerTx {
		t.Errorf("%d events for %d transmissions = %.2f per transmission, budget %.2f",
			events, transmissions, ratio, maxEventsPerTx)
	}
	if perEvent := allocs / float64(events); perEvent > maxAllocsPerEvent {
		t.Errorf("%.0f allocations for %d events = %.2f per event, budget %.2f",
			allocs, events, perEvent, maxAllocsPerEvent)
	}
}

// TestEventSizeBudget pins the size of an event-heap entry, which every
// push and pop copies once per heap level, and that it holds no pointers:
// the heap's array then needs no write barriers and no garbage-collector
// scan.
func TestEventSizeBudget(t *testing.T) {
	if size := sim.EventType.Size(); size > 24 {
		t.Errorf("event is %d bytes, budget 24", size)
	}
	if path, ok := pointerField(sim.EventType, "event"); ok {
		t.Errorf("event holds a pointer at %s", path)
	}
}

// pointerField returns the path of the first field of t that is or holds a
// pointer.
func pointerField(t reflect.Type, path string) (string, bool) {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", false
	case reflect.Array:
		return pointerField(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p, ok := pointerField(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
		return "", false
	}
	return path + " (" + t.String() + ")", true
}
