package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
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
		got := 0
		for _, g := range tab.placed[li] {
			got += len(g.slots)
		}
		if got != w {
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

// overlapCase is one frame kind for the conflict-group tables: a stream and
// whether the frame is reserve capacity.
type overlapCase struct {
	s       *model.Stream
	reserve bool
}

// overlapCases enumerates {Det, Prob} x Share x reserve for one Parent.
func overlapCases(parent model.StreamID) []overlapCase {
	var out []overlapCase
	for _, typ := range []model.StreamType{model.StreamDet, model.StreamProb} {
		for _, share := range []bool{false, true} {
			for _, reserve := range []bool{false, true} {
				s := &model.Stream{ID: model.StreamID(fmt.Sprintf("%v-%v-%v", typ, share, reserve)),
					Type: typ, Share: share, Parent: parent}
				out = append(out, overlapCase{s: s, reserve: reserve})
			}
		}
	}
	return out
}

// TestConflictGroupsMatchSlotsCanOverlap holds the group rule to the
// frame-level one on every combination of both frames' kind, Share, reserve
// flag and Parent, under both SharedReserves settings.
func TestConflictGroupsMatchSlotsCanOverlap(t *testing.T) {
	rows := 0
	for _, shared := range []bool{false, true} {
		for _, sameParent := range []bool{false, true} {
			other := model.StreamID("e2")
			if sameParent {
				other = "e1"
			}
			for _, a := range overlapCases("e1") {
				for _, b := range overlapCases(other) {
					rows++
					want := slotsCanOverlap(a.s, b.s, a.reserve, b.reserve, shared)
					got := classesCanOverlap(classOf(a.s, a.reserve, shared), classOf(b.s, b.reserve, shared))
					if got != want {
						t.Errorf("%s (reserve %v) vs %s (reserve %v), same parent %v, SharedReserves %v: groups say %v, slotsCanOverlap %v",
							a.s.ID, a.reserve, b.s.ID, b.reserve, sameParent, shared, got, want)
					}
				}
			}
		}
	}
	if rows != 256 {
		t.Fatalf("table has %d rows, want 256", rows)
	}
}

// oracleSlot is a reservation as the oracle scan sees it: the stream it
// belongs to and its reserve flag, not a conflict group.
type oracleSlot struct {
	placedSlot
	s       *model.Stream
	reserve bool
}

// clearOffsetsOracle is the conflict scan the slot table's groups and
// closed form replace: every reservation on the link, checked against
// slotsCanOverlap, then every instance pair over the pairwise hyperperiod.
func clearOffsetsOracle(placed []oracleSlot, s *model.Stream, reserve, sharedReserves bool, off, length, period int64) (next, prev int64) {
	next, prev = off, off
	for _, ps := range placed {
		if slotsCanOverlap(s, ps.s, reserve, ps.reserve, sharedReserves) {
			continue
		}
		hyper := model.LCM(period, ps.period)
		nx, ny := hyper/period, hyper/ps.period
		for x := int64(0); x < nx; x++ {
			a0 := off + x*period
			a1 := a0 + length
			for y := int64(0); y < ny; y++ {
				b0 := ps.offset + y*ps.period
				be := b0 + ps.length
				if a0 < be && b0 < a1 {
					next = max(next, be-x*period)
					prev = min(prev, b0-x*period-length)
				}
			}
		}
	}
	return next, prev
}

// FuzzClearOffsets holds clearOffsets to the oracle scan on random link
// tables: every conflict group (exclusive, shared, keyed reserves, keyed
// possibilities), divisor-rich and co-prime periods, and frame lengths from
// one unit up to the whole period.
func FuzzClearOffsets(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 60802, -3, 1 << 40} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	periods := []int64{12, 24, 36, 48, 60, 120, 7, 11, 13, 25}
	streams := []*model.Stream{
		{ID: "tct", Type: model.StreamDet},
		{ID: "share", Type: model.StreamDet, Share: true},
		{ID: "drain:e1", Type: model.StreamDet, Share: true, Parent: "e1"},
		{ID: "drain:e2", Type: model.StreamDet, Share: true, Parent: "e2"},
		{ID: "e1#0", Type: model.StreamProb, Parent: "e1"},
		{ID: "e2#0", Type: model.StreamProb, Parent: "e2"},
	}
	f.Fuzz(func(t *testing.T, seed int64, sharedReserves bool) {
		rng := rand.New(rand.NewSource(seed))
		frame := func() (s *model.Stream, reserve bool, ps placedSlot) {
			s, reserve = streams[rng.Intn(len(streams))], rng.Intn(2) == 0
			ps.period = periods[rng.Intn(len(periods))]
			ps.length = 1 + rng.Int63n(ps.period)
			if rng.Intn(4) == 0 {
				ps.length = 1 + rng.Int63n(3) // short frames leave gaps to land in
			}
			ps.offset = rng.Int63n(ps.period - ps.length + 1)
			return s, reserve, ps
		}
		tab := &slotTable{inst: &instance{opts: Options{SharedReserves: sharedReserves}},
			placed: make([][]slotGroup, 1)}
		var oracle []oracleSlot
		for n := rng.Intn(24); n > 0; n-- {
			s, reserve, ps := frame()
			tab.add(0, classOf(s, reserve, sharedReserves), ps)
			oracle = append(oracle, oracleSlot{placedSlot: ps, s: s, reserve: reserve})
		}
		for q := 0; q < 16; q++ {
			s, reserve, ps := frame()
			next, prev := tab.clearOffsets(0, classOf(s, reserve, sharedReserves), ps.offset, ps.length, ps.period)
			wantNext, wantPrev := clearOffsetsOracle(oracle, s, reserve, sharedReserves, ps.offset, ps.length, ps.period)
			if next != wantNext || prev != wantPrev {
				t.Fatalf("%s (reserve %v) at %+v against %d slots: (next, prev) = (%d, %d), oracle (%d, %d)",
					s.ID, reserve, ps, len(oracle), next, prev, wantNext, wantPrev)
			}
		}
	})
}
