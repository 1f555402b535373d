package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"etsn/internal/sched"
)

// simGolden pins SHA-256 of sim.Results.Canonical() on the Sec. VI-B testbed
// cell (75 % load, 1 s simulated). The values were recorded at commit 3c62fe0,
// before the event loop was rewritten around typed events and coalesced port
// wakes; an event-loop change that moves any latency, timestamp, drop or
// attribution record of any stream changes a hash here. Keys are
// method/seed/mode, mode being "default" or "attrib" (Attribution +
// TraceHops). The table also carried nine rows for a content-keyed event
// order that existed only so a sharded engine could reproduce the run; they
// went with that mode, and the twelve rows here are unchanged.
var simGolden = map[string]string{
	"E-TSN/60802/default":  "e9be9536ad893eee628d676b2ed229724085347536a8eaf4c1036abde3b63b48",
	"E-TSN/1/default":      "ab5a967a332acd17b571af043c3e79bb64bf58f76c1b895d526fe6ded57a39f8",
	"E-TSN/7/default":      "f7b3e581f0c2fdce8930be1cbd1cdef95bfa82a6281b371a2a9d2601bf58237d",
	"E-TSN/60802/attrib":   "6fec50ce2ff080d2b78a0e338b555d0285e5669e2628f1a2e08ea4c96d8946c1",
	"PERIOD/60802/default": "742078b58ab542b908b5c658e4a6e3e72821c08f29ba47a89e347675adfdbfa4",
	"PERIOD/1/default":     "f25b7ed753a042b50b9ac7099505199874bf51be679e94f6bff5c2fcf79eb7d8",
	"PERIOD/7/default":     "d08bef27a64d20757a716a0aa995292ed7e6c0a1b991c6ef68832b943229f3fc",
	"PERIOD/60802/attrib":  "1f172bca0519d1bf7b03d4c865356e238101b2d6ccc9c193721ca6077c56694b",
	"AVB/60802/default":    "a24d8151591606d5aed236dc039e70bda4d5aaec08d031f7a2582a9b4a7a36e4",
	"AVB/1/default":        "5f18cd8ca58d3799d47729cbbf6158a009567c34a834ed59e21615ea0436cda7",
	"AVB/7/default":        "6136b7fc03d8d2697f6a3c93de635ed8a62702e2347a19a42545bbd64019dbc3",
	"AVB/60802/attrib":     "06d094be3a890a4effecde8938e278a8139fad541dc175c7e99f4aa6bb029031",
}

func TestSimCanonicalGolden(t *testing.T) {
	scen, err := NewTestbedScenario(0.75, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, method := range []sched.Method{sched.MethodETSN, sched.MethodPERIOD, sched.MethodAVB} {
		plan, err := sched.Build(method, scen.Problem(), 1)
		if err != nil {
			t.Fatalf("%s plan: %v", method, err)
		}
		check := func(seed int64, mode string) {
			key := fmt.Sprintf("%s/%d/%s", method, seed, mode)
			raw, err := plan.SimulateOpts(scen.Network, sched.SimOptions{
				ECT: scen.ECT, BE: scen.BE, Duration: time.Second, Seed: seed,
				Attribution: mode == "attrib", TraceHops: mode == "attrib",
			})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			sum := sha256.Sum256(raw.Canonical())
			seen++
			if got := hex.EncodeToString(sum[:]); got != simGolden[key] {
				t.Errorf("%q: %q, golden %q", key, got, simGolden[key])
			}
		}
		for _, seed := range []int64{DefaultSeed, 1, 7} {
			check(seed, "default")
		}
		check(DefaultSeed, "attrib")
	}
	if seen != len(simGolden) {
		t.Errorf("checked %d runs, golden table has %d", seen, len(simGolden))
	}
}
