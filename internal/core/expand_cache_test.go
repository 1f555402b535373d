package core

import (
	"sync"
	"testing"

	"etsn/internal/model"
)

func cacheECT(t *testing.T, n *model.Network) *model.ECT {
	t.Helper()
	cycle := 5 * mtuTx
	return &model.ECT{ID: "e1", Path: mustPath(t, n, "D2", "D3"), E2E: cycle,
		LengthBytes: model.MTUBytes, MinInterevent: cycle}
}

func TestExpandCacheMatchesDirectExpansion(t *testing.T) {
	n := fig2Network(t)
	e := cacheECT(t, n)
	direct, err := ExpandECT(e, 5)
	if err != nil {
		t.Fatalf("ExpandECT: %v", err)
	}
	c := NewExpandCache()
	cached, err := c.Expand(e, 5)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(cached) != len(direct) {
		t.Fatalf("lengths differ: %d vs %d", len(cached), len(direct))
	}
	for i := range direct {
		if direct[i].ID != cached[i].ID || direct[i].OccurrenceTime != cached[i].OccurrenceTime ||
			direct[i].E2E != cached[i].E2E || len(direct[i].Path) != len(cached[i].Path) {
			t.Fatalf("stream %d differs: %+v vs %+v", i, direct[i], cached[i])
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache Len = %d, want 1", c.Len())
	}
}

func TestExpandCacheIsolation(t *testing.T) {
	n := fig2Network(t)
	e := cacheECT(t, n)
	c := NewExpandCache()
	first, err := c.Expand(e, 4)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// A scheduler may rewrite priorities and paths on its copy; the next
	// caller must get a pristine one.
	first[0].Priority = 99
	first[0].Path[0] = model.LinkID{From: "X", To: "Y"}
	second, err := c.Expand(e, 4)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if second[0].Priority == 99 {
		t.Fatal("cache handed out a mutated template (priority leak)")
	}
	if second[0].Path[0].From == "X" {
		t.Fatal("cache handed out a mutated template (path leak)")
	}
}

func TestExpandCacheDistinguishesNProb(t *testing.T) {
	n := fig2Network(t)
	e := cacheECT(t, n)
	c := NewExpandCache()
	a, err := c.Expand(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Expand(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 || len(b) != 5 {
		t.Fatalf("expansions = %d and %d, want 4 and 5", len(a), len(b))
	}
	if c.Len() != 2 {
		t.Fatalf("cache Len = %d, want 2", c.Len())
	}
}

func TestExpandCacheConcurrent(t *testing.T) {
	n := fig2Network(t)
	e := cacheECT(t, n)
	c := NewExpandCache()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ps, err := c.Expand(e, 5)
				if err != nil || len(ps) != 5 {
					panic("bad expansion under concurrency")
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 1 {
		t.Fatalf("cache Len = %d, want 1", c.Len())
	}
}

func TestExpandCacheNilPassThrough(t *testing.T) {
	n := fig2Network(t)
	e := cacheECT(t, n)
	var c *ExpandCache
	ps, err := c.Expand(e, 3)
	if err != nil || len(ps) != 3 {
		t.Fatalf("nil cache Expand = %d streams, err %v", len(ps), err)
	}
}

func TestScheduleWithExpandCacheEquivalent(t *testing.T) {
	// The same problem scheduled with and without the cache must produce
	// identical schedules (the cache only changes allocation, not data).
	n := fig2Network(t)
	run := func(cache *ExpandCache) *Result {
		p := fig6Problem(t, n)
		p.Opts.ExpandCache = cache
		res, err := Schedule(p)
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		return res
	}
	cache := NewExpandCache()
	plain := run(nil)
	cached1 := run(cache)
	cached2 := run(cache) // second run hits the cache
	for _, got := range []*Result{cached1, cached2} {
		if got.Schedule.NumSlots() != plain.Schedule.NumSlots() {
			t.Fatalf("slot counts differ: %d vs %d", got.Schedule.NumSlots(), plain.Schedule.NumSlots())
		}
		for _, link := range plain.Schedule.Links() {
			want := plain.Schedule.SlotsOn(link)
			have := got.Schedule.SlotsOn(link)
			if len(have) != len(want) {
				t.Fatalf("link %s: slot counts differ: %d vs %d", link, len(have), len(want))
			}
			for i := range want {
				if have[i] != want[i] {
					t.Fatalf("link %s slot %d differs: %+v vs %+v", link, i, have[i], want[i])
				}
			}
		}
	}
}
