package sim

import (
	"bytes"
	"fmt"
	"sort"

	"etsn/internal/model"
)

// Canonical renders every field of the Results — latencies, timestamps,
// drops, losses, eliminations, hop traces, attribution records and
// profiles, and conformance scores — into one deterministic byte string.
// Two Results are equivalent iff their canonical renderings are equal;
// the golden test that pins the event loop (TestSimCanonicalGolden) hashes
// this rendering.
func (r *Results) Canonical() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "totalDrops=%d hopTracing=%v attribOn=%v\n", r.totalDrops, r.hopTracing, r.attribOn)

	ids := make(map[model.StreamID]bool)
	for id := range r.latencies {
		ids[id] = true
	}
	for id := range r.drops {
		ids[id] = true
	}
	for id := range r.emitted {
		ids[id] = true
	}
	for id := range r.lost {
		ids[id] = true
	}
	for id := range r.eliminated {
		ids[id] = true
	}
	for id := range r.frames {
		ids[id] = true
	}
	for id := range r.profiles {
		ids[id] = true
	}
	for id := range r.conf {
		ids[id] = true
	}
	for k := range r.hops {
		ids[k.stream] = true
	}
	sorted := make([]model.StreamID, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	hopKeys := make([]hopKey, 0, len(r.hops))
	for k := range r.hops {
		hopKeys = append(hopKeys, k)
	}
	sort.Slice(hopKeys, func(i, j int) bool {
		if hopKeys[i].stream != hopKeys[j].stream {
			return hopKeys[i].stream < hopKeys[j].stream
		}
		return hopKeys[i].hop < hopKeys[j].hop
	})

	for _, id := range sorted {
		fmt.Fprintf(&b, "stream %s\n", id)
		fmt.Fprintf(&b, " counts drops=%d emitted=%d lost=%d eliminated=%d\n",
			r.drops[id], r.emitted[id], r.lost[id], r.eliminated[id])
		fmt.Fprintf(&b, " lat %v\n", r.latencies[id])
		fmt.Fprintf(&b, " deliveredAt %v\n", r.deliveredAt[id])
		fmt.Fprintf(&b, " dropAt %v\n", r.dropAt[id])
		fmt.Fprintf(&b, " lostAt %v\n", r.lostAt[id])
		for _, k := range hopKeys {
			if k.stream == id {
				fmt.Fprintf(&b, " hop %d %v\n", k.hop, r.hops[k])
			}
		}
		for _, rec := range r.frames[id] {
			writeFrameRecord(&b, rec)
		}
		if p := r.profiles[id]; p != nil {
			fmt.Fprintf(&b, " profile frames=%d total=%v worst:\n", p.Frames, p.TotalNs)
			writeFrameRecord(&b, &p.Worst)
		}
		if c := r.conf[id]; c != nil {
			fmt.Fprintf(&b, " conf bound=%d checked=%d misses=%d minSlack=%d worst=%d causes=%v\n",
				int64(c.Bound), c.Checked, c.Misses, int64(c.MinSlack), int64(c.WorstLatency), c.MissCauses)
		}
	}
	return b.Bytes()
}

func writeFrameRecord(b *bytes.Buffer, rec *FrameRecord) {
	fmt.Fprintf(b, " frame seq=%d frag=%d pri=%d created=%d enq=%d del=%d\n",
		rec.Seq, rec.Frag, rec.Priority, rec.CreatedNs, rec.EnqueuedNs, rec.DeliveredNs)
	for i := range rec.Hops {
		h := &rec.Hops[i]
		fmt.Fprintf(b, "  hop %s arr=%d start=%d q=%d g=%d p=%d tx=%d prop=%d\n",
			h.Link, h.ArriveNs, h.StartNs, h.QueueNs, h.GateNs, h.PreemptNs, h.TxNs, h.PropNs)
	}
}
