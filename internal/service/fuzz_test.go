package service

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"etsn/internal/core"
)

// FuzzDecodeSubmit hammers the daemon's plan-request decoder with arbitrary
// bytes. The contract: never panic, never accept something that the full
// pipeline validation would reject, and never leave work behind (the
// decoder is synchronous — goroutine growth is a leak).
func FuzzDecodeSubmit(f *testing.F) {
	f.Add([]byte(planConfig))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"network": {"devices": [], "switches": [], "links": []}, "streams": []}`))
	f.Add([]byte(`{"network":`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"network": {"devices": ["D1"], "switches": ["SW1"],
	  "links": [{"a": "D1", "b": "SW1", "bandwidth_bps": -5}]}, "streams": []}`))
	f.Add([]byte(`{"streams": [{"id": "x", "talker": "a", "listener": "a",
	  "type": "time-triggered", "period_us": -1}]}`))
	f.Add([]byte(`{"network": {"devices": ["D1", "D2"], "switches": ["SW1"],
	  "links": [{"a": "D1", "b": "SW1"}, {"a": "SW1", "b": "D2"}]},
	  "options": {"backend": "greedy"},
	  "streams": [{"id": "s", "talker": "D1", "listener": "D2",
	  "type": "time-triggered", "period_us": 4000, "deadline_us": 4000, "length_bytes": 100}]}`))
	f.Add([]byte(`{"options": {"backend": "quantum"}, "streams": []}`))
	f.Add(bytes.Repeat([]byte(`9`), 4096))

	before := runtime.NumGoroutine()
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := DecodeSubmit(bytes.NewReader(data), 1<<20)
		if err == nil {
			// Accepted configs must be fully buildable.
			if _, berr := cfg.BuildProblem(); berr != nil {
				t.Fatalf("accepted config does not build: %v", berr)
			}
		}
		if n := runtime.NumGoroutine(); n > before+50 {
			t.Fatalf("goroutine leak: %d -> %d", before, n)
		}
	})
}

// FuzzDecodeAdmit does the same for the stream-admission decoder.
func FuzzDecodeAdmit(f *testing.F) {
	f.Add([]byte(admitBody))
	f.Add([]byte(`{"streams": []}`))
	f.Add([]byte(`{"streams": [{}]}`))
	f.Add([]byte(`{"streams": [{"id": "a"}, {"id": "a"}]}`))
	f.Add([]byte(`{"streams": null}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(admitBodyBackend))
	f.Add([]byte(`{"backend": "quantum", "streams": [{"id": "a"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeAdmit(bytes.NewReader(data), 1<<20)
		if err == nil {
			if len(req.Streams) == 0 {
				t.Fatal("accepted an empty admission")
			}
			if req.Backend != "" {
				if _, berr := core.ParseBackend(req.Backend); berr != nil {
					t.Fatalf("accepted unknown backend %q", req.Backend)
				}
			}
			seen := map[string]bool{}
			for _, s := range req.Streams {
				if s.ID == "" {
					t.Fatal("accepted a stream without an id")
				}
				if seen[s.ID] {
					t.Fatalf("accepted duplicate id %q", s.ID)
				}
				seen[s.ID] = true
			}
		}
	})
}

// TestDecodeSubmitSizeLimit pins the bounded-body behavior the fuzzers
// assume: oversized input is rejected as invalid, not buffered.
func TestDecodeSubmitSizeLimit(t *testing.T) {
	big := strings.Repeat(" ", 512) + planConfig
	if _, err := DecodeSubmit(strings.NewReader(big), 128); Classify(err) != ClassInvalid {
		t.Fatalf("oversize submit: %v", err)
	}
	if _, err := DecodeAdmit(strings.NewReader(big), 128); Classify(err) != ClassInvalid {
		t.Fatalf("oversize admit: %v", err)
	}
	if _, err := DecodeSubmit(strings.NewReader(planConfig), 0); err != nil {
		t.Fatalf("default limit rejected a valid config: %v", err)
	}
}

// TestServerLifecycleNoGoroutineLeak runs a full submit/solve/shutdown cycle
// and checks the worker pool and journal do not leak goroutines.
func TestServerLifecycleNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		s := newTestServer(t, Config{})
		job, err := s.Submit("acme", KindPlan, []byte(planConfig))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, job)
		s.Shutdown()
	}
	// Give exiting workers a moment to unwind.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines %d -> %d after three server lifecycles", before, after)
	}
}
