package core

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"etsn/internal/model"
)

// spreadFallbackStreams builds the two streams the undo-log tests place
// under SpreadFrames on the D1->D3 path of fig2Network:
//
//   - "wide" carries two frames with an end-to-end budget a quarter of its
//     period. Spread placement spaces the frames half a period apart, so it
//     commits all four slots (two per hop) and only then fails the
//     end-to-end check; the per-stream ASAP retry packs the frames back to
//     back and succeeds.
//   - the probe is a one-frame stream whose spread phase lands inside the
//     slot the abandoned attempt gave wide's first frame on the first hop.
//     It is placed after wide (same period, fewer frames), so it sits
//     exactly on its phase iff that abandoned slot was truncated away.
func spreadFallbackStreams(t *testing.T, n *model.Network) (wide, probe *model.Stream) {
	t.Helper()
	const period = 4 * time.Millisecond
	units := int64(period / model.DefaultTimeUnit)
	path := mustPath(t, n, "D1", "D3")
	wide = &model.Stream{ID: "wide", Path: path, E2E: period / 4,
		LengthBytes: 2 * model.MTUBytes, Period: period, Type: model.StreamDet}
	link, _ := n.LinkByID(path[0])
	frame := link.TxUnits(model.MTUBytes)
	abandoned := streamPhase(wide.ID, units)
	if abandoned < 4*frame {
		t.Fatalf("wide's spread phase %d overlaps its ASAP slots; pick another ID", abandoned)
	}
	for i := 0; i < 100000; i++ {
		id := model.StreamID(fmt.Sprintf("probe%d", i))
		if ph := streamPhase(id, units); ph > abandoned-frame && ph < abandoned+frame {
			probe = &model.Stream{ID: id, Path: path, E2E: period,
				LengthBytes: model.MTUBytes, Period: period, Type: model.StreamDet}
			return wide, probe
		}
	}
	t.Fatal("no probe ID hashes onto the abandoned slot")
	return nil, nil
}

// checkSpreadFallback asserts the plan is verifier-clean, every link
// carries exactly the instance's frame counts, wide was packed ASAP, and
// the probe sits on its own spread phase (no leaked slot pushed it away).
func checkSpreadFallback(t *testing.T, n *model.Network, res *Result, wide, probe *model.Stream) {
	t.Helper()
	verifyClean(t, n, res)
	want := make(map[model.LinkID]int)
	for _, s := range res.Expanded {
		for _, lid := range s.Path {
			want[lid] += res.FrameCountOn(s.ID, lid)
		}
	}
	for lid, w := range want {
		if got := len(res.Schedule.SlotsOn(lid)); got != w {
			t.Errorf("%s carries %d slots, want %d", lid, got, w)
		}
	}
	first := wide.Path[0]
	ws := res.Schedule.StreamSlots(wide.ID, first)
	if len(ws) != 2 || ws[1].VirtualOffset() != ws[0].VirtualEnd() {
		t.Fatalf("wide was not retried ASAP on %s: %+v", first, ws)
	}
	units := int64(probe.Period / model.DefaultTimeUnit)
	ps := res.Schedule.StreamSlots(probe.ID, first)
	if len(ps) != 1 || ps[0].VirtualOffset() != streamPhase(probe.ID, units) {
		t.Fatalf("probe slot %+v is off its spread phase %d: the abandoned attempt leaked a slot",
			ps, streamPhase(probe.ID, units))
	}
}

func TestSpreadFallbackLeavesNoSlots(t *testing.T) {
	n := fig2Network(t)
	wide, probe := spreadFallbackStreams(t, n)
	p := &Problem{Network: n, TCT: []*model.Stream{probe, wide},
		Opts: Options{Backend: BackendPlacer, SpreadFrames: true}}
	res, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	checkSpreadFallback(t, n, res, wide, probe)

	// The same placement driven by hand: the table itself must hold one
	// reservation per frame on every link once the fallback has run.
	inst, err := buildInstance(p, p.Opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	tab := newSlotTable(inst)
	wideIdx := 1
	if err := tab.placeStream(wideIdx, true); err == nil {
		t.Fatal("spread placement of wide succeeded; the test needs it to fail after committing")
	}
	tab = newSlotTable(inst)
	if err := tab.placeAll(placementOrder(inst.streams), true); err != nil {
		t.Fatalf("placeAll: %v", err)
	}
	perLink := make([]int, len(inst.linkIdx))
	for _, hops := range inst.hops {
		for _, h := range hops {
			perLink[h.link] += h.count
		}
	}
	for li, w := range perLink {
		if got := len(tab.placed[li]); got != w {
			t.Errorf("link %d holds %d reservations, want %d", li, got, w)
		}
	}
}

func TestAdmitSpreadFallbackLeavesNoSlots(t *testing.T) {
	n := fig2Network(t)
	wide, probe := spreadFallbackStreams(t, n)
	p := &Problem{Network: n,
		TCT: []*model.Stream{{ID: "deployed", Path: mustPath(t, n, "D2", "D3"), E2E: 4 * time.Millisecond,
			LengthBytes: model.MTUBytes, Period: 4 * time.Millisecond, Type: model.StreamDet}},
		Opts: Options{Backend: BackendPlacer, SpreadFrames: true}}
	prev, err := Schedule(p)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	res, err := Admit(p, prev, []*model.Stream{probe, wide}, nil)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if !SlotsUnchanged(prev.Schedule, res.Schedule) {
		t.Fatal("admission moved deployed slots")
	}
	checkSpreadFallback(t, n, res, wide, probe)
}

// TestStreamPhaseIsFNV1a holds the inlined hash to hash/fnv's values: the
// phase decides spread offsets, so a different hash is a different plan.
func TestStreamPhaseIsFNV1a(t *testing.T) {
	for _, id := range []model.StreamID{"", "s1", "c07-tct31", "drain:ect:SW1->D3"} {
		h := fnv.New32a()
		h.Write([]byte(id))
		for _, period := range []int64{1, 4000, 16000} {
			if got, want := streamPhase(id, period), int64(h.Sum32())%(period/2+1); got != want {
				t.Errorf("streamPhase(%q, %d) = %d, want %d", id, period, got, want)
			}
		}
	}
}

// cellCorpusInstance builds `cells` star cells of six devices under one core
// switch, each carrying 50 light cell-local streams: the shape of the scale
// corpus, where stream and link counts grow together.
func cellCorpusInstance(t *testing.T, cells int) *instance {
	t.Helper()
	n := model.NewNetwork()
	if err := n.AddSwitch("CORE"); err != nil {
		t.Fatal(err)
	}
	p := &Problem{Network: n, Opts: Options{Backend: BackendPlacer}}
	periods := []time.Duration{4 * time.Millisecond, 8 * time.Millisecond, 16 * time.Millisecond}
	for c := 0; c < cells; c++ {
		sw := model.NodeID(fmt.Sprintf("SW%d", c))
		if err := n.AddSwitch(sw); err != nil {
			t.Fatal(err)
		}
		if err := n.AddLink(sw, "CORE", model.LinkConfig{Bandwidth: 1_000_000_000}); err != nil {
			t.Fatal(err)
		}
		devs := make([]model.NodeID, 6)
		for d := range devs {
			devs[d] = model.NodeID(fmt.Sprintf("C%d-D%d", c, d))
			if err := n.AddDevice(devs[d]); err != nil {
				t.Fatal(err)
			}
			if err := n.AddLink(devs[d], sw, model.LinkConfig{Bandwidth: 1_000_000_000}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			period := periods[i%len(periods)]
			p.TCT = append(p.TCT, &model.Stream{
				ID:          model.StreamID(fmt.Sprintf("c%02d-s%02d", c, i)),
				Path:        mustPath(t, n, devs[i%6], devs[(i%6+1+(i/6)%5)%6]),
				Period:      period,
				E2E:         period,
				LengthBytes: 200,
				Type:        model.StreamDet,
			})
		}
	}
	inst, err := buildInstance(p, p.Opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestPlacerAllocScaling pins the placer's bookkeeping to the stream, not
// the network: doubling the corpus doubles streams and links together, so
// a per-stream snapshot of every link (the retired mark()) quadruples the
// bytes allocated while per-stream bookkeeping doubles them.
func TestPlacerAllocScaling(t *testing.T) {
	alloc := func(cells int) uint64 {
		inst := cellCorpusInstance(t, cells)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := solvePlacer(inst); err != nil {
			t.Fatalf("%d cells: %v", cells, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	half, full := alloc(22), alloc(44)
	t.Logf("solvePlacer: %d B at 1100 streams, %d B at 2200", half, full)
	if ratio := float64(full) / float64(half); ratio > 2.5 {
		t.Fatalf("solvePlacer allocates %d B at 2200 streams, %d B at 1100: %.2fx, want <= 2.5x",
			full, half, ratio)
	}
}
