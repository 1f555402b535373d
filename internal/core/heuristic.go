package core

import (
	"fmt"

	"etsn/internal/model"
)

// The annealing backend's move space: every stream is frozen into its rigid
// ASAP chain (chainMins), and the search shifts whole chains by a per-stream
// phase delta. A rigid shift preserves every intra-stream constraint
// (sequencing, adjacency, and a deterministic stream's end-to-end span) by
// construction, so the only thing the search must repair is inter-stream
// slot overlap — counted exactly over the pairwise hyperperiod. Zero conflicts therefore means a verifier-clean
// schedule; a non-zero floor at budget exhaustion is a give-up (ErrBudget),
// never an infeasibility proof.

// chainSlot is one frame of a rigid chain.
type chainSlot struct {
	key     frameKey
	base    int64 // chain-minimal virtual start (delta = 0)
	length  int64
	reserve bool
	link    model.LinkID
}

// chainStream is a stream frozen into its chain, shifted by delta.
type chainStream struct {
	s        *model.Stream
	t        int64 // period in units
	slots    []chainSlot
	delta    int64
	deltaMax int64 // inclusive; from the latency budget (prob) or period (det)
}

// validDelta reports whether shifting the chain by d keeps every slot
// inside the latency budget and off the period boundary.
func (c *chainStream) validDelta(d int64) bool {
	if d < 0 || d > c.deltaMax {
		return false
	}
	for _, sl := range c.slots {
		if (sl.base+d)%c.t+sl.length > c.t {
			return false
		}
	}
	return true
}

// firstValidDelta scans upward from `from` to the first delta where no slot
// straddles a period boundary.
func (c *chainStream) firstValidDelta(from int64) (int64, bool) {
	d := from
	for d <= c.deltaMax {
		ok := true
		for _, sl := range c.slots {
			off := (sl.base + d) % c.t
			if off+sl.length > c.t {
				d += c.t - off // push the straddler to the next period start
				ok = false
				break
			}
		}
		if ok {
			return d, true
		}
	}
	return 0, false
}

// heurState is the search state: chains, a per-link index, and
// incrementally maintained conflict counts.
type heurState struct {
	inst   *instance
	chains []*chainStream
	// byLink[lid] lists the chain indices with at least one slot on lid.
	byLink map[model.LinkID][]int
	// conf[i] is chain i's total conflicts against all other chains; total
	// is the sum over unordered pairs (conf double-counts each pair).
	conf    []int
	total   int
	scratch []int // per-chain pair counts, reused across moves
}

// buildHeurState freezes every stream into its chain and seeds each with
// the smallest boundary-valid delta.
func buildHeurState(inst *instance) (*heurState, error) {
	h := &heurState{
		inst:   inst,
		byLink: make(map[model.LinkID][]int),
	}
	for _, s := range inst.streams {
		mins := chainMins(inst, s)
		c := &chainStream{s: s, t: inst.periodUnits[s.ID]}
		for _, lid := range s.Path {
			count := inst.frames[s.ID][lid]
			for j := 0; j < count; j++ {
				k := frameKey{stream: s.ID, link: lid, index: j}
				c.slots = append(c.slots, chainSlot{
					key:     k,
					base:    mins[k],
					length:  inst.frameLen(s, lid, j),
					reserve: inst.isReserveIndex(s, j),
					link:    lid,
				})
			}
		}
		last := c.slots[len(c.slots)-1]
		if s.Type == model.StreamProb {
			// The whole chain must deliver inside the budget measured from
			// the floored occurrence time.
			c.deltaMax = inst.otFloorUnits[s.ID] + inst.e2eUnits[s.ID] - (last.base + last.length)
		} else {
			// A rigid shift keeps the span; only the boundary constrains
			// deterministic streams, and shifts beyond one period repeat.
			c.deltaMax = c.t - 1
			span := last.base + last.length - c.slots[0].base
			if span > inst.e2eUnits[s.ID] {
				return nil, fmt.Errorf("%w: heuristic: stream %q chain span %d exceeds e2e %d",
					ErrBudget, s.ID, span, inst.e2eUnits[s.ID])
			}
		}
		if c.deltaMax < 0 {
			return nil, fmt.Errorf("%w: heuristic: stream %q has no slack inside its budget", ErrBudget, s.ID)
		}
		d, ok := c.firstValidDelta(0)
		if !ok {
			return nil, fmt.Errorf("%w: heuristic: stream %q has no boundary-valid phase", ErrBudget, s.ID)
		}
		c.delta = d
		h.chains = append(h.chains, c)
	}
	for i, c := range h.chains {
		seen := make(map[model.LinkID]bool, len(c.s.Path))
		for _, lid := range c.s.Path {
			if !seen[lid] {
				seen[lid] = true
				h.byLink[lid] = append(h.byLink[lid], i)
			}
		}
	}
	h.conf = make([]int, len(h.chains))
	h.scratch = make([]int, len(h.chains))
	// Only chains sharing a link can conflict, so seed from the per-link
	// index instead of all pairs.
	for i := range h.chains {
		for _, j := range h.others(i) {
			if j > i {
				n := h.pairConf(i, j)
				h.conf[i] += n
				h.conf[j] += n
				h.total += n
			}
		}
	}
	return h, nil
}

// pairConf counts overlapping periodic slot instances between chains i and
// j at their current deltas (0 when the pair may legally overlap).
func (h *heurState) pairConf(i, j int) int {
	a, b := h.chains[i], h.chains[j]
	n := 0
	hyper := model.LCM(a.t, b.t)
	for _, sa := range a.slots {
		for _, sb := range b.slots {
			if sa.link != sb.link {
				continue
			}
			if slotsCanOverlap(a.s, b.s, sa.reserve, sb.reserve, h.inst.opts.SharedReserves) {
				continue
			}
			offA := (sa.base + a.delta) % a.t
			offB := (sb.base + b.delta) % b.t
			for x := int64(0); x < hyper/a.t; x++ {
				a0 := offA + x*a.t
				a1 := a0 + sa.length
				for y := int64(0); y < hyper/b.t; y++ {
					b0 := offB + y*b.t
					if a0 < b0+sb.length && b0 < a1 {
						n++
					}
				}
			}
		}
	}
	return n
}

// others collects the chain indices sharing at least one link with chain i
// (the only chains whose pair counts a move of i can change).
func (h *heurState) others(i int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, sl := range h.chains[i].slots {
		for _, j := range h.byLink[sl.link] {
			if j != i && !seen[j] {
				seen[j] = true
				out = append(out, j)
			}
		}
	}
	return out
}

// evalDelta returns chain i's total conflicts if its delta were d.
func (h *heurState) evalDelta(i int, d int64, others []int) int {
	c := h.chains[i]
	old := c.delta
	c.delta = d
	n := 0
	for _, j := range others {
		n += h.pairConf(i, j)
	}
	c.delta = old
	return n
}

// setDelta commits chain i to delta d, updating all conflict counts.
func (h *heurState) setDelta(i int, d int64, others []int) {
	for _, j := range others {
		h.scratch[j] = h.pairConf(i, j)
	}
	h.chains[i].delta = d
	for _, j := range others {
		n := h.pairConf(i, j)
		diff := n - h.scratch[j]
		h.conf[j] += diff
		h.conf[i] += diff
		h.total += diff
	}
}

// candidates proposes phase deltas for chain i: for every current conflict,
// the shifts that align our instance just after (or just before) the busy
// instance, plus a coarse grid over the period. Only boundary-valid deltas
// are returned, deduplicated, in deterministic order.
func (h *heurState) candidates(i int, others []int) []int64 {
	c := h.chains[i]
	var out []int64
	seen := make(map[int64]bool)
	add := func(d int64) {
		if !seen[d] && c.validDelta(d) {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, j := range others {
		b := h.chains[j]
		hyper := model.LCM(c.t, b.t)
		for _, sa := range c.slots {
			for _, sb := range b.slots {
				if sa.link != sb.link ||
					slotsCanOverlap(c.s, b.s, sa.reserve, sb.reserve, h.inst.opts.SharedReserves) {
					continue
				}
				offA := (sa.base + c.delta) % c.t
				offB := (sb.base + b.delta) % b.t
				for x := int64(0); x < hyper/c.t; x++ {
					a0 := offA + x*c.t
					a1 := a0 + sa.length
					for y := int64(0); y < hyper/b.t; y++ {
						b0 := offB + y*b.t
						be := b0 + sb.length
						if a0 < be && b0 < a1 {
							add(c.delta + (be - a0))
							add(c.delta - (a1 - b0))
						}
					}
				}
				if len(out) > 32 {
					return out
				}
			}
		}
	}
	// Coarse grid fallback so the search can escape dense neighborhoods.
	step := c.t / 16
	if step < 1 {
		step = 1
	}
	for d := int64(0); d <= c.deltaMax && len(out) < 48; d += step {
		add(d)
	}
	return out
}

// extract materializes the current (conflict-free) assignment.
func (h *heurState) extract(backend Backend) *Result {
	vphi := make(map[frameKey]int64)
	for _, c := range h.chains {
		for _, sl := range c.slots {
			vphi[sl.key] = sl.base + c.delta
		}
	}
	res := extractSchedule(h.inst, func(_ int, k frameKey) int64 { return vphi[k] })
	res.BackendUsed = backend
	return res
}
