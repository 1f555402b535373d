package model

import (
	"fmt"
	"sync"
	"testing"
)

// benchNetwork builds a two-tier network with `cells` edge switches, four
// devices each, and prewarms every in-cell route so the benchmarks measure
// pure cache-hit reads.
func benchNetwork(b testing.TB, cells int) (*Network, [][2]NodeID) {
	n := NewNetwork()
	if err := n.AddSwitch("CORE"); err != nil {
		b.Fatal(err)
	}
	var pairs [][2]NodeID
	for c := 0; c < cells; c++ {
		sw := NodeID(fmt.Sprintf("SW%d", c))
		if err := n.AddSwitch(sw); err != nil {
			b.Fatal(err)
		}
		if err := n.AddLink(sw, "CORE", LinkConfig{Bandwidth: 1_000_000_000}); err != nil {
			b.Fatal(err)
		}
		var devs []NodeID
		for d := 0; d < 4; d++ {
			id := NodeID(fmt.Sprintf("C%d-D%d", c, d))
			if err := n.AddDevice(id); err != nil {
				b.Fatal(err)
			}
			if err := n.AddLink(id, sw, LinkConfig{Bandwidth: 100_000_000}); err != nil {
				b.Fatal(err)
			}
			devs = append(devs, id)
		}
		for i := range devs {
			for j := range devs {
				if i != j {
					pairs = append(pairs, [2]NodeID{devs[i], devs[j]})
				}
			}
		}
	}
	for _, p := range pairs {
		if _, err := n.ShortestPath(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
	return n, pairs
}

// BenchmarkRouteCacheParallel measures concurrent cache-hit ShortestPath
// reads: one mutex acquisition, one map lookup and the copy of the path.
func BenchmarkRouteCacheParallel(b *testing.B) {
	n, pairs := benchNetwork(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p := pairs[i%len(pairs)]
			if _, err := n.ShortestPath(p[0], p[1]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// TestRouteCacheConcurrentReaders hammers cold and warm lookups from many
// goroutines and checks every returned path against a fresh uncached
// computation. Run under -race this doubles as the data-race gate for the
// route memo.
func TestRouteCacheConcurrentReaders(t *testing.T) {
	n, pairs := benchNetwork(t, 8)
	// Invalidate so the readers start cold and race to fill the memo.
	n.invalidateCaches()
	want := make(map[[2]NodeID]string, len(pairs))
	for _, p := range pairs {
		path, err := n.shortestPathUncached(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		want[p] = fmt.Sprint(path)
	}
	n.invalidateCaches()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := pairs[(i*7+w)%len(pairs)]
				got, err := n.ShortestPath(p[0], p[1])
				if err != nil {
					errs <- err
					return
				}
				if fmt.Sprint(got) != want[p] {
					errs <- fmt.Errorf("route %v: got %v, want %v", p, got, want[p])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
