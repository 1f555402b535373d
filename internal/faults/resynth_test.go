package faults_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"etsn/internal/faults"
	"etsn/internal/gcl"
	"etsn/internal/model"
)

// TestRecoveryProgramsMatchFullSynthesis: the controller compiles only the
// ports whose slots moved and keeps the deployed program of every other
// one. Over random Admit/Fail/Restore sequences on the ring deployments,
// each step's programs must equal a from-scratch gcl.Synthesize of its
// schedule, and its rollout set the diff between the two full syntheses.
func TestRecoveryProgramsMatchFullSynthesis(t *testing.T) {
	ring := []model.LinkID{sw12, {From: "SW2", To: "SW3"}, {From: "SW3", To: "SW4"}, sw41}
	periods := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	var steps, reused int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := ringProblem(t, rng.Intn(2) == 0)
		c, _ := controller(t, p, nil)
		_, _, full := c.Deployed()
		prev := full
		for step := 0; step < 6; step++ {
			var rec *faults.Recovery
			var err error
			switch rng.Intn(3) {
			case 0:
				src := model.NodeID(fmt.Sprintf("D%d", 1+rng.Intn(8)))
				dst := model.NodeID(fmt.Sprintf("D%d", 1+rng.Intn(8)))
				if src == dst {
					continue
				}
				path, perr := p.Network.ShortestPath(src, dst)
				if perr != nil {
					t.Fatal(perr)
				}
				period := periods[rng.Intn(len(periods))]
				id := model.StreamID(fmt.Sprintf("a%d", step))
				if rng.Intn(4) == 0 {
					rec, err = c.Admit(nil, []*model.ECT{{ID: id, Path: path, E2E: 2 * period,
						LengthBytes: model.MTUBytes, MinInterevent: period}})
				} else {
					rec, err = c.Admit([]*model.Stream{{ID: id, Path: path, E2E: period,
						LengthBytes: 200 + rng.Intn(model.MTUBytes), Period: period,
						Type: model.StreamDet, Share: rng.Intn(3) == 0}}, nil)
				}
			case 1:
				rec, err = c.Fail(ring[rng.Intn(len(ring))])
			default:
				rec, err = c.Restore(c.DeadLinks()...)
			}
			if err != nil {
				// A rejected step deploys nothing; the next one diffs
				// against the same programs.
				continue
			}
			want, err := gcl.Synthesize(rec.Result.Schedule, c.GCL)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rec.GCLs, want) {
				t.Fatalf("seed %d step %d: programs differ from a full synthesis", seed, step)
			}
			if got, wantChanged := rec.ChangedPorts, gcl.ChangedPorts(full, want); !reflect.DeepEqual(got, wantChanged) {
				t.Fatalf("seed %d step %d: rollout set %v, full synthesis diff %v", seed, step, got, wantChanged)
			}
			for lid, g := range rec.GCLs {
				if prev[lid] == g {
					reused++
				}
			}
			steps++
			full, prev = want, rec.GCLs
		}
	}
	if steps == 0 || reused == 0 {
		t.Fatalf("%d steps deployed, %d programs reused: the sequences never exercised reuse", steps, reused)
	}
	t.Logf("%d steps deployed, %d programs reused", steps, reused)
}
