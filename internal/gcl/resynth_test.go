package gcl

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"etsn/internal/model"
)

// specLinks are the links a spec schedule can use; a slot whose link byte
// selects len(specLinks) is left out, so an edit can empty a link.
var specLinks = []model.LinkID{
	{From: "D1", To: "SW1"}, {From: "SW1", To: "D2"},
	{From: "SW1", To: "SW2"}, {From: "SW2", To: "D3"},
}

// specSchedule decodes a schedule: byte 0 picks the hyperperiod in units,
// byte 1 the time unit, and every following group of five bytes is one slot
// (link, period, offset, length, flags). Every spec decodes to a compilable
// schedule.
func specSchedule(spec []byte) *model.Schedule {
	at := func(i int) int64 {
		if i < len(spec) {
			return int64(spec[i])
		}
		return 0
	}
	hyperU := []int64{1200, 2400}[at(0)%2]
	unit := time.Duration(1+at(1)%2) * time.Microsecond
	s := model.NewSchedule()
	s.Hyperperiod = time.Duration(hyperU) * unit
	for i, off := 0, 2; off+5 <= len(spec); i, off = i+1, off+5 {
		li := at(off) % int64(len(specLinks)+1)
		if li == int64(len(specLinks)) {
			continue
		}
		lid := specLinks[li]
		period := []int64{300, 600, 1200}[at(off+1)%3]
		flags := at(off + 4)
		id := model.StreamID(fmt.Sprintf("s%d", i))
		s.AddStream(&model.Stream{ID: id, Path: []model.LinkID{lid}, Period: time.Duration(period) * unit})
		s.AddSlot(model.FrameSlot{Stream: id, Link: lid, Offset: at(off+2) * period / 256,
			Length: 1 + at(off+3)*period/256, Period: period, Priority: int(flags>>2) % model.NumPriorities,
			Shared: flags&1 != 0, Prob: flags&2 != 0})
	}
	s.Sort()
	return s
}

// edited returns a copy of spec with each (position, value) pair of edits
// applied.
func edited(spec, edits []byte) []byte {
	out := append([]byte(nil), spec...)
	for i := 0; i+1 < len(edits); i += 2 {
		if p := int(edits[i]); p < len(out) {
			out[p] = edits[i+1]
		}
	}
	return out
}

// FuzzResynthesize: reusing a deployed plan's programs gives exactly the
// programs, and the rollout set, of compiling the next schedule from
// scratch. The next schedule is the previous one with a few spec bytes
// edited, so most links keep their slots and some do not.
func FuzzResynthesize(f *testing.F) {
	// Two slots on link 0, one on link 2; link 3 starts empty.
	base := []byte{0, 0, 0, 1, 10, 40, 0, 0, 2, 128, 20, 1, 2, 0, 60, 30, 6}
	f.Add(base, []byte{})                  // nothing changes
	f.Add(base, []byte{0, 1})              // hyperperiod doubles
	f.Add(base, []byte{0, 1, 1, 1})        // unit and hyperperiod change
	f.Add(base, []byte{12, 4})             // link 2 loses its only slot
	f.Add(base, []byte{12, 3})             // it moves: link 3 gains its first
	f.Add(base, []byte{5, 70, 16, 7})      // a slot on link 0 grows, one on link 2 changes class
	f.Add(base, []byte{7, 4, 2, 4, 12, 4}) // every link empties
	// 2400 units of 1 us become 1200 units of 2 us: the same hyperperiod
	// and the same slots in units, but every duration doubles.
	f.Add(edited(base, []byte{0, 1}), []byte{0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, spec, edits []byte) {
		cfg := Config{OpenECTOnShared: true}
		prevSched, nextSched := specSchedule(spec), specSchedule(edited(spec, edits))
		prev, err := Synthesize(prevSched, cfg)
		if err != nil {
			t.Fatalf("previous spec schedule does not compile: %v", err)
		}
		want, wantErr := Synthesize(nextSched, cfg)
		got, err := Resynthesize(prevSched, prev, nextSched, cfg)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Resynthesize error %v, Synthesize error %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Resynthesize differs from Synthesize\n got %v\nwant %v", got, want)
		}
		if a, b := ChangedPorts(prev, got), ChangedPorts(prev, want); !reflect.DeepEqual(a, b) {
			t.Fatalf("rollout set %v, full synthesis diff %v", a, b)
		}
	})
}
