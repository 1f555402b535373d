package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"etsn/internal/model"
)

// benchVerifyResult schedules a dense scenario once so the benchmarks
// measure Verify alone: 48 low-load streams down one 6-switch line, so
// every stream visits every line link and per-(stream, link) costs
// dominate any per-link overhead.
func benchVerifyResult(tb testing.TB) (*model.Network, *Result) {
	tb.Helper()
	n := lineNetwork(tb, 6)
	path, err := n.ShortestPath("D1", "D2")
	if err != nil {
		tb.Fatal(err)
	}
	p := &Problem{Network: n}
	for i := 0; i < 48; i++ {
		p.TCT = append(p.TCT, &model.Stream{
			ID:          model.StreamID(fmt.Sprintf("s%02d", i)),
			Path:        append([]model.LinkID(nil), path...),
			Period:      16 * time.Millisecond,
			E2E:         16 * time.Millisecond,
			LengthBytes: 500,
			Type:        model.StreamDet,
		})
	}
	p.Opts.Backend = BackendPlacer
	res, err := Schedule(p)
	if err != nil {
		tb.Fatalf("Schedule: %v", err)
	}
	return n, res
}

// BenchmarkVerifyAllocs tracks the verifier's allocation profile. The slot
// index groups each link's slots once per call; before it, Verify allocated
// and re-sorted a fresh slice per (stream, link) pair.
func BenchmarkVerifyAllocs(b *testing.B) {
	n, res := benchVerifyResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := Verify(n, res); len(vs) != 0 {
			b.Fatalf("unexpected violations: %v", vs[0])
		}
	}
}

// benchDenseResult schedules an instance shaped like the benchmark's
// dense-40 workload (paper Sec. VI-C): four switches in a line with three
// devices each, 40 sharing TCT streams of two MTUs over periods of 5, 10 and
// 20 ms between random devices, one 5-MTU ECT stream end to end expanded to
// 64 possibilities, spread placement, shared reserves. The busy links carry
// a few hundred slots in three period classes — the regime where the
// verifier's overlap check, not its per-stream checks, is the cost.
func benchDenseResult(tb testing.TB) (*model.Network, *Result) {
	tb.Helper()
	n := model.NewNetwork()
	var devices []model.NodeID
	for sw := 1; sw <= 4; sw++ {
		id := model.NodeID(fmt.Sprintf("SW%d", sw))
		if err := n.AddSwitch(id); err != nil {
			tb.Fatal(err)
		}
		if sw > 1 {
			if err := n.AddLink(model.NodeID(fmt.Sprintf("SW%d", sw-1)), id, model.LinkConfig{Bandwidth: 100_000_000}); err != nil {
				tb.Fatal(err)
			}
		}
		for k := 0; k < 3; k++ {
			d := model.NodeID(fmt.Sprintf("D%d", len(devices)+1))
			if err := n.AddDevice(d); err != nil {
				tb.Fatal(err)
			}
			if err := n.AddLink(d, id, model.LinkConfig{Bandwidth: 100_000_000}); err != nil {
				tb.Fatal(err)
			}
			devices = append(devices, d)
		}
	}
	path := func(src, dst model.NodeID) []model.LinkID {
		p, err := n.ShortestPath(src, dst)
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	rng := rand.New(rand.NewSource(40))
	p := &Problem{Network: n}
	for i := 0; i < 40; i++ {
		src := rng.Intn(len(devices))
		dst := (src + 1 + rng.Intn(len(devices)-1)) % len(devices)
		period := []time.Duration{5, 10, 20}[i%3] * time.Millisecond
		p.TCT = append(p.TCT, &model.Stream{
			ID:          model.StreamID(fmt.Sprintf("tct%02d", i+1)),
			Path:        path(devices[src], devices[dst]),
			Period:      period,
			E2E:         2 * period,
			LengthBytes: 2 * model.MTUBytes,
			Type:        model.StreamDet,
			Share:       true,
		})
	}
	p.ECT = []*model.ECT{{ID: "ect", Path: path("D1", "D12"), E2E: 10 * time.Millisecond,
		LengthBytes: 5 * model.MTUBytes, MinInterevent: 10 * time.Millisecond}}
	p.Opts = Options{Backend: BackendPlacer, NProb: 64, SpreadFrames: true, SharedReserves: true}
	res, err := Schedule(p)
	if err != nil {
		tb.Fatalf("Schedule: %v", err)
	}
	return n, res
}

// BenchmarkVerifyDense is Verify where the overlap check dominates; the
// pairwise check it replaced is verifyOverlapsPairwise in verify_test.go.
func BenchmarkVerifyDense(b *testing.B) {
	n, res := benchDenseResult(b)
	links := res.Schedule.Links()
	b.ReportMetric(float64(res.Schedule.NumSlots())/float64(len(links)), "slots/link")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := Verify(n, res); len(vs) != 0 {
			b.Fatalf("unexpected violations: %v", vs[0])
		}
	}
}

// TestVerifyAllocBudget pins the reduction: Verify must allocate O(links)
// slices, not O(streams x path length). The naive per-(stream, link)
// StreamSlots version spends at least one allocation per path hop of every
// stream plus one per sort; the indexed version's budget below is far under
// that floor, so a regression back to per-pair allocation trips this test.
func TestVerifyAllocBudget(t *testing.T) {
	n, res := benchVerifyResult(t)
	pathHops := 0
	for _, s := range res.Expanded {
		pathHops += len(s.Path)
	}
	links := len(res.Schedule.Links())
	allocs := testing.AllocsPerRun(10, func() {
		if vs := Verify(n, res); len(vs) != 0 {
			t.Fatalf("unexpected violations: %v", vs[0])
		}
	})
	// The per-pair StreamSlots version could not go below one allocation
	// per (stream, link) visit — every call built a fresh slice. The slot
	// index amortizes that to O(links), so staying under one alloc per
	// path hop is exactly the reduction this satellite pins.
	if allocs >= float64(pathHops) {
		t.Fatalf("Verify allocates %.0f objects over %d path hops (links=%d); want < 1 per hop", allocs, pathHops, links)
	}
}
