package sim

import (
	"testing"
	"time"

	"etsn/internal/core"
	"etsn/internal/gcl"
	"etsn/internal/model"
	"etsn/internal/obs"
)

// lifecycleCase is one fuzzed run of the Fig. 6 plan. mask switches on,
// bit by bit: a link down/up, a switch reboot, a loss burst, a configured
// LinkLoss, FRER replication with elimination, a best-effort flow too large
// for its gate windows (jam drops), an OnFault hook that reprograms (stale
// TCT emissions), and an ordinary background flow.
type lifecycleCase struct {
	seed          int64
	mask          uint8
	at1, at2      uint16 // fault instants, in 10 µs units
	payload, loss uint16
}

// lifecycleDeaths counts, by cause, the frames of a run that reached the
// end of their life. Drops split into jams (the gate never opens wide
// enough), arrivals at a dead port, and queues flushed by a fault.
type lifecycleDeaths struct {
	delivered, jammed, downed, flushed, lost, eliminated, stale int
}

var lifecycleSeeds = []lifecycleCase{
	{seed: 1, mask: 0xFF, at1: 700, at2: 1200, payload: 7000, loss: 40},
	{seed: 2, mask: 0x01 | 0x10 | 0x40, at1: 300, at2: 450, payload: 0, loss: 0},
	{seed: 3, mask: 0x02 | 0x08 | 0x20, at1: 1500, at2: 900, payload: 3000, loss: 100},
	{seed: 4, mask: 0x04 | 0x10 | 0x40 | 0x80, at1: 1000, at2: 2000, payload: 500, loss: 90},
	{seed: 5, mask: 0x20 | 0x80, at1: 0, at2: 0, payload: 8000, loss: 0},
}

// FuzzFrameLifecycle steps randomized runs by hand and checks the frame free
// list after every event: no free frame is reachable from a queue or from a
// pending evDeliver/evEmit, no frame is queued or pending twice, and every
// frame not on the free list is reachable. At the end every frame the run
// made is accounted for exactly once: delivered at its listener, dropped,
// lost on the wire, eliminated as a duplicate, discarded as a stale
// emission, or still in flight.
func FuzzFrameLifecycle(f *testing.F) {
	n, res, gcls, ect := etsnPlan(f)
	for _, c := range lifecycleSeeds {
		f.Add(c.seed, c.mask, c.at1, c.at2, c.payload, c.loss)
	}
	f.Fuzz(func(t *testing.T, seed int64, mask uint8, at1, at2, payload, loss uint16) {
		runLifecycle(t, n, res, gcls, ect, lifecycleCase{seed, mask, at1, at2, payload, loss})
	})
}

// TestFrameLifecycleSeedsReachEveryDeath runs the fuzz seeds and requires
// that, between them, they exercise every way a frame dies.
func TestFrameLifecycleSeedsReachEveryDeath(t *testing.T) {
	n, res, gcls, ect := etsnPlan(t)
	var total lifecycleDeaths
	for _, c := range lifecycleSeeds {
		d := runLifecycle(t, n, res, gcls, ect, c)
		total.delivered += d.delivered
		total.jammed += d.jammed
		total.downed += d.downed
		total.flushed += d.flushed
		total.lost += d.lost
		total.eliminated += d.eliminated
		total.stale += d.stale
	}
	if total.delivered == 0 || total.jammed == 0 || total.downed == 0 || total.flushed == 0 ||
		total.lost == 0 || total.eliminated == 0 || total.stale == 0 {
		t.Fatalf("the seeds miss a death point: %+v", total)
	}
	t.Logf("deaths over the seeds: %+v", total)
}

func runLifecycle(t *testing.T, n *model.Network, res *core.Result, gcls map[model.LinkID]*gcl.PortGCL,
	ect *model.ECT, c lifecycleCase) lifecycleDeaths {
	t.Helper()
	const span = 30 * time.Millisecond
	at1 := time.Duration(c.at1) * 10 * time.Microsecond % span
	at2 := time.Duration(c.at2) * 10 * time.Microsecond % span
	links := []model.LinkID{{From: "D1", To: "SW1"}, {From: "D2", To: "SW1"}, {From: "SW1", To: "D3"}}
	cfg := Config{Network: n, Schedule: res.Schedule, GCLs: gcls, Duration: span, Seed: c.seed,
		Attribution: true, Obs: obs.NewRegistry()}
	src := ECTTraffic{Stream: ect, Priority: model.PriorityECT}
	if c.mask&0x01 != 0 {
		l := links[int(c.seed&0x7fff)%len(links)]
		cfg.Faults = append(cfg.Faults, Fault{At: at1, Kind: FaultLinkDown, Link: l},
			Fault{At: at1 + at2%(5*time.Millisecond) + time.Microsecond, Kind: FaultLinkUp, Link: l})
	}
	if c.mask&0x02 != 0 {
		cfg.Faults = append(cfg.Faults, Fault{At: at2, Kind: FaultSwitchReboot, Node: "SW1",
			Duration: time.Millisecond + at1%(2*time.Millisecond)})
	}
	if c.mask&0x04 != 0 {
		cfg.Faults = append(cfg.Faults, Fault{At: at1, Kind: FaultLossBurst, Link: links[1],
			Duration: 5 * time.Millisecond, Loss: float64(c.loss%100+1) / 100})
	}
	if c.mask&0x08 != 0 {
		cfg.LinkLoss = map[model.LinkID]float64{links[2]: float64(c.loss%512) / 1024}
	}
	if c.mask&0x10 != 0 {
		// A member copy over the same route: the listener keeps the first.
		src.ExtraPaths = [][]model.LinkID{append([]model.LinkID(nil), ect.Path...)}
		cfg.Eliminate = true
	}
	if c.mask&0x20 != 0 {
		cfg.BestEffort = append(cfg.BestEffort, BETraffic{Path: mustPath(t, n, "D1", "D3"),
			PayloadBytes: 64 + int(c.payload%9000), MeanGap: 400 * time.Microsecond})
	}
	if c.mask&0x40 != 0 {
		// A clock step on the listener is a benign trigger; the hook
		// reprograms, and every TCT fragment already scheduled goes stale.
		cfg.Faults = append(cfg.Faults, Fault{At: at2 + time.Microsecond, Kind: FaultClockStep, Node: "D3",
			Step: time.Microsecond})
		shed := map[model.StreamID]bool{"s1": c.seed%2 == 0}
		cfg.OnFault = func(s *Simulator, _ Fault) {
			if err := s.Reprogram(res.Schedule, gcls, shed); err != nil {
				t.Errorf("Reprogram: %v", err)
			}
		}
	}
	if c.mask&0x80 != 0 {
		cfg.BestEffort = append(cfg.BestEffort, BETraffic{Path: mustPath(t, n, "D2", "D3"),
			MeanGap: 300 * time.Microsecond})
	}
	cfg.ECT = []ECTTraffic{src}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	s.prime()
	var d lifecycleDeaths
	var inFlight int
	for step := 0; s.events.Len() > 0 && s.events[0].at <= s.cfg.Duration; step++ {
		e := s.events.pop()
		if e.kind == evEmit && s.frameTab[e.op].gen != s.gen {
			d.stale++
		}
		s.dispatch(&e)
		inFlight = checkFreeList(t, s, step)
	}
	for _, recs := range s.results.frames {
		d.delivered += len(recs)
	}
	d.jammed = int(s.mDropsJam.Value())
	d.downed = int(s.mDropsDown.Value())
	d.flushed = int(s.mDropsFlush.Value())
	for _, k := range s.results.lost {
		d.lost += k
	}
	for _, k := range s.results.eliminated {
		d.eliminated += k
	}
	if died := d.delivered + d.jammed + d.downed + d.flushed + d.lost + d.eliminated + d.stale; died+inFlight != s.framesMade {
		t.Fatalf("%+v: %d frames made, %d died (%+v) and %d in flight", c, s.framesMade, died, d, inFlight)
	}
	return d
}

// checkFreeList checks the free list against every frame a queue or a
// pending event holds, and returns how many frames are in flight.
func checkFreeList(t *testing.T, s *Simulator, step int) int {
	t.Helper()
	free := make(map[*Frame]bool, len(s.freeFrames))
	for _, f := range s.freeFrames {
		if free[f] {
			t.Fatalf("step %d, t=%v: frame %d released twice", step, s.now, f.idx)
		}
		free[f] = true
	}
	held := make(map[*Frame]string)
	hold := func(f *Frame, where string) {
		if free[f] {
			t.Fatalf("step %d, t=%v: free frame %d still held by %s", step, s.now, f.idx, where)
		}
		if prev, ok := held[f]; ok {
			t.Fatalf("step %d, t=%v: frame %d held by both %s and %s", step, s.now, f.idx, prev, where)
		}
		held[f] = where
	}
	for _, p := range s.portTab {
		for pri := range p.queues {
			for _, f := range p.queues[pri].frames() {
				hold(f, p.link.ID().String()+" queue")
			}
		}
	}
	for _, e := range s.events {
		switch e.kind {
		case evDeliver:
			hold(s.frameTab[e.op], "a pending delivery")
		case evEmit:
			hold(s.frameTab[e.op], "a pending emission")
		}
	}
	if live := len(s.frameTab) - len(s.freeFrames); live != len(held) {
		t.Fatalf("step %d, t=%v: %d frames live, %d held by queues and events", step, s.now, live, len(held))
	}
	return len(held)
}
