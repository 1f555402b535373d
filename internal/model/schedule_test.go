package model

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameSlotEnd(t *testing.T) {
	fs := FrameSlot{Offset: 10, Length: 5}
	if fs.End() != 15 {
		t.Fatalf("End = %d, want 15", fs.End())
	}
}

func TestFrameSlotOverlaps(t *testing.T) {
	link := LinkID{From: "a", To: "b"}
	base := FrameSlot{Link: link, Offset: 0, Length: 10, Period: 100}
	cases := []struct {
		name  string
		other FrameSlot
		want  bool
	}{
		{"identical", FrameSlot{Link: link, Offset: 0, Length: 10, Period: 100}, true},
		{"adjacent after", FrameSlot{Link: link, Offset: 10, Length: 10, Period: 100}, false},
		{"partial", FrameSlot{Link: link, Offset: 5, Length: 10, Period: 100}, true},
		{"different link", FrameSlot{Link: link.Reverse(), Offset: 0, Length: 10, Period: 100}, false},
		{"disjoint same period", FrameSlot{Link: link, Offset: 50, Length: 10, Period: 100}, false},
		// Period 30 instance at offset 20: instances at 20, 50, 80, 110...
		// base instances at 0..10 mod 100. Hyper=300: base at 0,100,200;
		// other at 20,50,80,110,...,290. 110 vs 100..110? base 100..110,
		// other 110..120: adjacent, no overlap. 200..210 vs 200? other at
		// 200: yes (20+180 = 200).
		{"cross period overlap", FrameSlot{Link: link, Offset: 20, Length: 10, Period: 30}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := base.Overlaps(&c.other); got != c.want {
				t.Fatalf("Overlaps = %v, want %v", got, c.want)
			}
			// Overlap is symmetric.
			if got := c.other.Overlaps(&base); got != c.want {
				t.Fatalf("reverse Overlaps = %v, want %v", got, c.want)
			}
		})
	}
}

// TestQuickOverlapSymmetric checks Overlaps symmetry on random slots.
func TestQuickOverlapSymmetric(t *testing.T) {
	link := LinkID{From: "a", To: "b"}
	f := func(o1, o2 uint8, l1, l2 uint8, p1, p2 uint8) bool {
		a := FrameSlot{Link: link, Offset: int64(o1 % 50), Length: int64(l1%10) + 1, Period: int64(p1%4+1) * 25}
		b := FrameSlot{Link: link, Offset: int64(o2 % 50), Length: int64(l2%10) + 1, Period: int64(p2%4+1) * 25}
		if a.Offset+a.Length > a.Period || b.Offset+b.Length > b.Period {
			return true // skip invalid
		}
		return a.Overlaps(&b) == b.Overlaps(&a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleSortAndQuery(t *testing.T) {
	s := NewSchedule()
	link := LinkID{From: "a", To: "b"}
	s.AddSlot(FrameSlot{Stream: "s2", Link: link, Index: 0, Offset: 20, Length: 5, Period: 100})
	s.AddSlot(FrameSlot{Stream: "s1", Link: link, Index: 1, Offset: 10, Length: 5, Period: 100})
	s.AddSlot(FrameSlot{Stream: "s1", Link: link, Index: 0, Offset: 0, Length: 5, Period: 100})
	s.Sort()
	slots := s.SlotsOn(link)
	if len(slots) != 3 {
		t.Fatalf("len = %d", len(slots))
	}
	if slots[0].Offset != 0 || slots[1].Offset != 10 || slots[2].Offset != 20 {
		t.Fatalf("not sorted: %+v", slots)
	}
	ss := s.StreamSlots("s1", link)
	if len(ss) != 2 || ss[0].Index != 0 || ss[1].Index != 1 {
		t.Fatalf("StreamSlots = %+v", ss)
	}
	if s.NumSlots() != 3 {
		t.Fatalf("NumSlots = %d", s.NumSlots())
	}
	if links := s.Links(); len(links) != 1 || links[0] != link {
		t.Fatalf("Links = %v", links)
	}
}

// TestScheduleSortMatchesValueSort holds the key sort and in-place
// permutation to a plain sort of the FrameSlot values, on links crowded
// with offset ties that only (Stream, Index) breaks.
func TestScheduleSortMatchesValueSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		s := NewSchedule()
		want := make(map[LinkID][]FrameSlot)
		for _, link := range []LinkID{{From: "a", To: "b"}, {From: "b", To: "a"}} {
			for i, n := 0, rng.Intn(40); i < n; i++ {
				fs := FrameSlot{Stream: StreamID(fmt.Sprintf("s%d", rng.Intn(5))), Link: link,
					Index: i, Offset: int64(rng.Intn(6)), Length: 1, Period: 10}
				s.AddSlot(fs)
				want[link] = append(want[link], fs)
			}
			slices.SortFunc(want[link], func(a, b FrameSlot) int {
				if c := cmp.Compare(a.Offset, b.Offset); c != 0 {
					return c
				}
				if c := cmp.Compare(a.Stream, b.Stream); c != 0 {
					return c
				}
				return cmp.Compare(a.Index, b.Index)
			})
		}
		s.Sort()
		for link, w := range want {
			if got := s.SlotsOn(link); !slices.Equal(got, w) {
				t.Fatalf("trial %d, %v: Sort gave %+v, want %+v", trial, link, got, w)
			}
		}
	}
}

func TestScheduleClone(t *testing.T) {
	s := NewSchedule()
	s.Hyperperiod = 16 * time.Millisecond
	link := LinkID{From: "a", To: "b"}
	s.AddStream(&Stream{ID: "s1", Path: []LinkID{link}, Period: time.Millisecond})
	s.AddSlot(FrameSlot{Stream: "s1", Link: link, Offset: 1, Length: 1, Period: 10})
	c := s.Clone()
	if c.Hyperperiod != s.Hyperperiod || c.NumSlots() != 1 || len(c.Streams) != 1 {
		t.Fatalf("clone mismatch: %v", c)
	}
	// Mutating the clone must not affect the original.
	c.Streams["s1"].Period = 2 * time.Millisecond
	c.AddSlot(FrameSlot{Stream: "s1", Link: link, Offset: 5, Length: 1, Period: 10})
	if s.Streams["s1"].Period != time.Millisecond {
		t.Fatal("clone shares stream pointers")
	}
	if s.NumSlots() != 1 {
		t.Fatal("clone shares slot slices")
	}
}

func TestScheduleString(t *testing.T) {
	s := NewSchedule()
	if s.String() == "" {
		t.Fatal("empty String")
	}
}
