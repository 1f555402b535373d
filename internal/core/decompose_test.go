package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"etsn/internal/model"
	"etsn/internal/obs"
)

// multiCellProblem builds a factory-cell topology: `cells` star cells (one
// edge switch, four devices each) hanging off a shared CORE switch for
// connectivity, with all traffic staying inside its own cell so the
// conflict graph has exactly one component per cell that carries streams.
func multiCellProblem(t testing.TB, seed int64, cells int) (*model.Network, *Problem) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := model.NewNetwork()
	if err := n.AddSwitch("CORE"); err != nil {
		t.Fatal(err)
	}
	p := &Problem{Network: n}
	periods := []time.Duration{4 * time.Millisecond, 8 * time.Millisecond, 16 * time.Millisecond}
	for c := 0; c < cells; c++ {
		sw := model.NodeID(fmt.Sprintf("SW%d", c))
		if err := n.AddSwitch(sw); err != nil {
			t.Fatal(err)
		}
		if err := n.AddLink(sw, "CORE", model.LinkConfig{Bandwidth: 1_000_000_000}); err != nil {
			t.Fatal(err)
		}
		devs := make([]model.NodeID, 4)
		for d := range devs {
			devs[d] = model.NodeID(fmt.Sprintf("C%d-D%d", c, d))
			if err := n.AddDevice(devs[d]); err != nil {
				t.Fatal(err)
			}
			if err := n.AddLink(devs[d], sw, model.LinkConfig{Bandwidth: 100_000_000}); err != nil {
				t.Fatal(err)
			}
		}
		nStreams := 2 + rng.Intn(3)
		for i := 0; i < nStreams; i++ {
			src := devs[rng.Intn(len(devs))]
			dst := devs[rng.Intn(len(devs))]
			if src == dst {
				dst = devs[(indexOf(devs, src)+1)%len(devs)]
			}
			path, err := n.ShortestPath(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			period := periods[rng.Intn(len(periods))]
			p.TCT = append(p.TCT, &model.Stream{
				ID:          model.StreamID(fmt.Sprintf("c%d-s%d", c, i)),
				Path:        path,
				Period:      period,
				E2E:         2 * period,
				LengthBytes: (1 + rng.Intn(2)) * model.MTUBytes,
				Type:        model.StreamDet,
				Share:       rng.Intn(2) == 0,
			})
		}
		if rng.Intn(2) == 0 {
			path, err := n.ShortestPath(devs[0], devs[3])
			if err != nil {
				t.Fatal(err)
			}
			p.ECT = append(p.ECT, &model.ECT{
				ID:            model.StreamID(fmt.Sprintf("c%d-ect", c)),
				Path:          path,
				E2E:           16 * time.Millisecond,
				LengthBytes:   model.MTUBytes,
				MinInterevent: 16 * time.Millisecond,
			})
		}
	}
	p.Opts.NProb = 4
	return n, p
}

// planDump renders a schedule into a canonical byte string: hyperperiod,
// then every slot on every link in sorted order. Byte-equal dumps mean
// byte-equal plans.
func planDump(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hyper=%d\n", int64(res.Schedule.Hyperperiod))
	streams := make([]string, 0, len(res.Expanded))
	for _, s := range res.Expanded {
		streams = append(streams, fmt.Sprintf("stream %s path=%v period=%d prio=%d", s.ID, s.Path, int64(s.Period), s.Priority))
	}
	sort.Strings(streams)
	for _, s := range streams {
		fmt.Fprintln(&b, s)
	}
	for _, lid := range res.Schedule.Links() {
		for _, fs := range res.Schedule.SlotsOn(lid) {
			fmt.Fprintf(&b, "%s: %+v\n", lid, fs)
		}
	}
	return b.String()
}

func TestConflictComponentsPartition(t *testing.T) {
	const cells = 5
	_, p := multiCellProblem(t, 7, cells)
	comps := conflictComponents(p)
	// Streams never leave their cell, so there is at least one component
	// per cell and no component mixes cells.
	cellOf := func(id string) string { return id[:strings.Index(id, "-")] }
	seen := map[string]bool{}
	total := 0
	for _, c := range comps {
		var cell string
		for _, s := range c.tct {
			if cell == "" {
				cell = cellOf(string(s.ID))
			} else if cellOf(string(s.ID)) != cell {
				t.Fatalf("component mixes cells %s and %s", cell, cellOf(string(s.ID)))
			}
			total++
		}
		for _, e := range c.ect {
			if cell == "" {
				cell = cellOf(string(e.ID))
			} else if cellOf(string(e.ID)) != cell {
				t.Fatalf("component mixes cells %s and %s", cell, cellOf(string(e.ID)))
			}
			total++
		}
		seen[cell] = true
	}
	if total != len(p.TCT)+len(p.ECT) {
		t.Fatalf("components cover %d streams, want %d", total, len(p.TCT)+len(p.ECT))
	}
	if len(seen) != cells {
		t.Fatalf("components span %d cells, want %d", len(seen), cells)
	}
	// Determinism: same problem, same partition, same order.
	again := conflictComponents(p)
	if !reflect.DeepEqual(comps, again) {
		t.Fatal("conflictComponents is not deterministic")
	}
}

func TestConflictComponentsLinkSharingJoins(t *testing.T) {
	n, p := multiCellProblem(t, 3, 2)
	addStream := func(id string, src, dst model.NodeID) {
		path, err := n.ShortestPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		p.TCT = append(p.TCT, &model.Stream{
			ID: model.StreamID(id), Path: path, Period: 8 * time.Millisecond,
			E2E: 16 * time.Millisecond, LengthBytes: model.MTUBytes, Type: model.StreamDet,
		})
	}
	// Two anchors in different cells, then a bridge that shares its first
	// directed link with anchor A (same talker) and its last with anchor B
	// (same listener): link sharing must fuse their components.
	addStream("anchorA", "C0-D0", "C0-D1")
	addStream("anchorB", "C1-D2", "C1-D0")
	compOf := func(id model.StreamID) int {
		for i, c := range conflictComponents(p) {
			for _, s := range c.tct {
				if s.ID == id {
					return i
				}
			}
		}
		t.Fatalf("stream %s not in any component", id)
		return -1
	}
	if compOf("anchorA") == compOf("anchorB") {
		t.Fatal("anchors share a component before the bridge exists")
	}
	addStream("bridge", "C0-D0", "C1-D0")
	if a, b, br := compOf("anchorA"), compOf("anchorB"), compOf("bridge"); a != b || a != br {
		t.Fatalf("bridge did not fuse components: anchorA=%d anchorB=%d bridge=%d", a, b, br)
	}
}

// TestDecomposedPlanVerifies is the tentpole property: across random
// multi-cell scenarios and backends, the merged decomposed plan passes the
// independent verifier and the decomposition actually engaged.
func TestDecomposedPlanVerifies(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, b := range []Backend{BackendPlacer, BackendGreedy, BackendCascade} {
			n, p := multiCellProblem(t, seed, 3)
			p.Opts.Backend = b
			p.Opts.Decompose = true
			reg := obs.NewRegistry()
			p.Opts.Obs = reg
			res, err := Schedule(p)
			if err != nil {
				if errors.Is(err, ErrInfeasible) || errors.Is(err, ErrBudget) {
					continue
				}
				t.Fatalf("seed %d backend %v: unclassified error %v", seed, b, err)
			}
			if vs := Verify(n, res); len(vs) != 0 {
				t.Fatalf("seed %d backend %v: merged plan has %d violations, first: %s", seed, b, len(vs), vs[0])
			}
			if got := reg.CounterValue("etsn_core_components"); got < 2 {
				t.Fatalf("seed %d backend %v: etsn_core_components = %d, want >= 2", seed, b, got)
			}
			if hs, ok := reg.HistogramSnapshotFor("etsn_core_component_streams"); !ok || hs.Count < 2 {
				t.Fatalf("seed %d backend %v: component stream histogram missing or short", seed, b)
			}
			if hs, ok := reg.HistogramSnapshotFor("etsn_core_component_solve_latency_ns"); !ok || hs.Count < 2 {
				t.Fatalf("seed %d backend %v: component latency histogram missing or short", seed, b)
			}
		}
	}
}

// TestDecomposeMatchesMonolithicPlacer: the placer is link-local, so the
// decomposed plan must be byte-identical to the monolithic plan even when
// the conflict graph has many components.
func TestDecomposeMatchesMonolithicPlacer(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		_, p1 := multiCellProblem(t, seed, 4)
		p1.Opts.Backend = BackendPlacer
		mono, errM := Schedule(p1)

		_, p2 := multiCellProblem(t, seed, 4)
		p2.Opts.Backend = BackendPlacer
		p2.Opts.Decompose = true
		dec, errD := Schedule(p2)

		if (errM == nil) != (errD == nil) {
			t.Fatalf("seed %d: outcome diverged: mono %v, decomposed %v", seed, errM, errD)
		}
		if errM != nil {
			continue
		}
		if got, want := planDump(dec), planDump(mono); got != want {
			t.Fatalf("seed %d: decomposed placer plan differs from monolithic:\n--- mono ---\n%s--- decomposed ---\n%s", seed, want, got)
		}
	}
}

// TestDecomposeSingleComponentByteIdentical: when every stream shares one
// link the conflict graph is a single component and Decompose must fall
// through to the very same monolithic code path.
func TestDecomposeSingleComponentByteIdentical(t *testing.T) {
	build := func() (*model.Network, *Problem) {
		n := fig2Network(t)
		return n, fig4Problem(t, n)
	}
	_, p := build()
	if got := len(conflictComponents(p)); got != 1 {
		t.Fatalf("fig4 problem has %d components, want 1", got)
	}
	for _, b := range []Backend{BackendPlacer, BackendCascade, BackendSMTIncremental} {
		_, pm := build()
		pm.Opts.Backend = b
		mono, errM := Schedule(pm)
		_, pd := build()
		pd.Opts.Backend = b
		pd.Opts.Decompose = true
		dec, errD := Schedule(pd)
		if errM != nil || errD != nil {
			t.Fatalf("backend %v: mono err %v, decomposed err %v", b, errM, errD)
		}
		if got, want := planDump(dec), planDump(mono); got != want {
			t.Fatalf("backend %v: single-component decomposed plan differs from monolithic", b)
		}
		if !reflect.DeepEqual(dec.Schedule, mono.Schedule) {
			t.Fatalf("backend %v: schedules not deep-equal", b)
		}
	}
}

// TestDecomposeRaceDeterministic: with the default cascade per component,
// the merged plan and per-component winners are stable across runs. Run
// under -race this also exercises the concurrent merge paths.
func TestDecomposeRaceDeterministic(t *testing.T) {
	run := func(seed int64) (*Result, error) {
		_, p := multiCellProblem(t, seed, 3)
		p.Opts.Backend = BackendCascade
		p.Opts.Decompose = true
		return Schedule(p)
	}
	for seed := int64(1); seed <= 4; seed++ {
		a, errA := run(seed)
		b, errB := run(seed)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: outcome diverged: %v vs %v", seed, errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.BackendUsed != b.BackendUsed {
			t.Fatalf("seed %d: BackendUsed diverged: %v vs %v", seed, a.BackendUsed, b.BackendUsed)
		}
		if got, want := planDump(a), planDump(b); got != want {
			t.Fatalf("seed %d: decomposed cascade plan not deterministic", seed)
		}
	}
}

// TestDecomposeInfeasibleSurfacesProof: an infeasible component's exact
// proof must survive the merge — ErrInfeasible classification, the
// *PlaceFailure for rerouting, and the component index in the message.
func TestDecomposeInfeasibleSurfacesProof(t *testing.T) {
	n, p := multiCellProblem(t, 2, 2)
	// Oversubscribe one link in cell 1: a stream whose E2E no schedule on a
	// 100 Mbit/s link can meet.
	path, err := n.ShortestPath("C1-D0", "C1-D1")
	if err != nil {
		t.Fatal(err)
	}
	p.TCT = append(p.TCT, &model.Stream{
		ID: "c1-doomed", Path: path, Period: 4 * time.Millisecond,
		E2E: 1 * time.Microsecond, LengthBytes: model.MTUBytes, Type: model.StreamDet,
	})
	p.Opts.Backend = BackendPlacer
	p.Opts.Decompose = true
	_, err = Schedule(p)
	if err == nil {
		t.Fatal("want error, got nil")
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible in chain", err)
	}
	var pf *PlaceFailure
	if !errors.As(err, &pf) {
		t.Fatalf("err = %v, want *PlaceFailure in chain", err)
	}
	if pf.Stream != "c1-doomed" {
		t.Fatalf("PlaceFailure.Stream = %q, want c1-doomed", pf.Stream)
	}
	if !strings.Contains(err.Error(), "component") {
		t.Fatalf("err = %v, want component attribution in message", err)
	}
}

// TestDecomposeRoutingStillFires: ScheduleWithRouting must still extract
// the stuck stream from a decomposed failure and reroute it. The doomed
// stream gets an alternate path through a second in-cell switch with a
// faster uplink, so the reroute succeeds.
func TestDecomposeRoutingStillFires(t *testing.T) {
	// Two disjoint cells. Cell A's device pair has a short path over a slow
	// inter-switch link and a longer alternate over fast links; the tight
	// stream is infeasible on the short path, so the reroute must fire —
	// with Decompose on, from inside a decomposed failure.
	n := model.NewNetwork()
	for _, sw := range []model.NodeID{"SWa", "SWb", "SWx", "SWc"} {
		if err := n.AddSwitch(sw); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []model.NodeID{"D0", "D1", "D2", "D3"} {
		if err := n.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	fast := model.LinkConfig{Bandwidth: 1_000_000_000}
	for _, l := range []struct {
		a, b model.NodeID
		cfg  model.LinkConfig
	}{
		{"D0", "SWa", fast}, {"D1", "SWb", fast},
		{"SWa", "SWb", model.LinkConfig{Bandwidth: 10_000_000}}, // slow direct
		{"SWa", "SWx", fast}, {"SWx", "SWb", fast},              // fast detour
		{"D2", "SWc", fast}, {"D3", "SWc", fast}, {"SWc", "SWx", fast},
	} {
		if err := n.AddLink(l.a, l.b, l.cfg); err != nil {
			t.Fatal(err)
		}
	}
	pathTight, err := n.ShortestPath("D0", "D1")
	if err != nil {
		t.Fatal(err)
	}
	pathFill, err := n.ShortestPath("D2", "D3")
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{Network: n, TCT: []*model.Stream{
		// ~1.2 ms to push one MTU over the 10 Mbit/s direct hop: the 1 ms
		// E2E is hopeless there, easy over the 1 Gbit/s detour.
		{ID: "tight", Path: pathTight, Period: 4 * time.Millisecond,
			E2E: time.Millisecond, LengthBytes: model.MTUBytes, Type: model.StreamDet},
		{ID: "fill", Path: pathFill, Period: 4 * time.Millisecond,
			E2E: 8 * time.Millisecond, LengthBytes: model.MTUBytes, Type: model.StreamDet},
	}}
	p.Opts.Backend = BackendPlacer
	p.Opts.Decompose = true
	if got := len(conflictComponents(p)); got != 2 {
		t.Fatalf("conflict graph has %d components, want 2", got)
	}
	res, routed, err := ScheduleWithRouting(p, 3)
	if err != nil {
		t.Fatalf("ScheduleWithRouting: %v", err)
	}
	if res == nil || routed == nil {
		t.Fatal("ScheduleWithRouting returned nil result")
	}
	if vs := Verify(n, res); len(vs) != 0 {
		t.Fatalf("routed decomposed plan has %d violations, first: %s", len(vs), vs[0])
	}
	// The reroute must actually have moved the tight stream off the slow hop.
	for _, lid := range routed.TCT[0].Path {
		if lid == (model.LinkID{From: "SWa", To: "SWb"}) {
			t.Fatal("tight stream still routed over the slow SWa->SWb hop")
		}
	}
}

// FuzzDecomposeMerge drives randomized multi-cell scenarios through the
// decomposed scheduler: any accepted merged plan must be verifier-clean,
// and failures must be classified.
func FuzzDecomposeMerge(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(42), uint8(4))
	f.Add(int64(7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, cells uint8) {
		k := int(cells)%5 + 2
		n, p := multiCellProblem(t, seed, k)
		p.Opts.Backend = BackendPlacer
		p.Opts.Decompose = true
		res, err := Schedule(p)
		if err != nil {
			if !errors.Is(err, ErrInfeasible) && !errors.Is(err, ErrBudget) && !errors.Is(err, ErrInvalidProblem) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		if vs := Verify(n, res); len(vs) != 0 {
			t.Fatalf("merged plan has %d violations, first: %s", len(vs), vs[0])
		}
	})
}
