package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"etsn/internal/model"
)

// This file is the sequential simulator's half of the conservative-parallel
// engine (internal/psim): per-shard construction, deterministic result and
// trace journaling, cross-shard frame handoffs, and the order-preserving
// merge. The engine half — partitioning, workers, and the time-window
// barrier — lives in internal/psim; everything that must agree byte-for-byte
// with the sequential oracle lives here so both engines share one code path.

// subSeed derives an independent RNG seed for entity idx of a kind
// ('E'vent source, 'B'est-effort flow, 'L'ossy port) from the run seed,
// using the splitmix64 finalizer so related inputs land far apart.
func subSeed(seed int64, kind byte, idx int64) int64 {
	x := uint64(seed) ^ uint64(kind)<<56 ^ uint64(idx)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// shardHooks wires one Simulator instance into the parallel engine: its
// shard index, the link-ownership function from the topology partition, the
// listener shard of every stream (where last-hop processing — elimination,
// reassembly, conformance — happens), and the handoff outbox.
type shardHooks struct {
	idx      int
	owner    func(model.LinkID) int
	listener map[model.StreamID]int
	emit     func(Handoff)
}

// Handoff is a frame crossing a shard boundary: delivery of frame at At on
// the destination shard, carrying the deterministic event key the delivery
// would have had in the sequential order.
type Handoff struct {
	// At is the arrival instant (transmit end plus propagation).
	At    time.Duration
	dst   int
	key   evKey
	frame *Frame
}

// Dst returns the shard index the handoff is addressed to.
func (h Handoff) Dst() int { return h.dst }

// ectOnShard reports whether event source i must run on this shard: it
// launches frames from at least one port owned here (main route or a
// replication path). Replicated sources run on every owning shard with
// identical RNG copies, so all replicas agree on the event times.
func (s *Simulator) ectOnShard(i int) bool {
	if s.shard == nil {
		return true
	}
	src := s.cfg.ECT[i]
	for _, p := range append([][]model.LinkID{src.Stream.Path}, src.ExtraPaths...) {
		if s.routeOf(p).ports[0] != nil {
			return true
		}
	}
	return false
}

// ordOf returns a stream's dense ordinal for event keys (-1, distinct from
// every real ordinal, if the stream is unknown).
func (s *Simulator) ordOf(id model.StreamID) int32 {
	if ord, ok := s.streamOrd[id]; ok {
		return ord
	}
	return -1
}

// deliverDst returns the shard index a frame's next processing step belongs
// to, or -1 when it is local: the owner of the next link to cross, or the
// stream's listener shard at the last hop (so elimination and reassembly
// state stay on one shard even for 802.1CB member copies).
func (s *Simulator) deliverDst(f *Frame) int {
	if s.shard == nil {
		return -1
	}
	var dst int
	if f.LastHop() {
		dst = s.shard.listener[f.Stream]
	} else {
		dst = s.shard.owner(f.route.links[f.Hop+1])
	}
	if dst == s.shard.idx {
		return -1
	}
	return dst
}

// resEntry is one journaled Results mutation: the event time and key it
// happened under, the port ordinal it happened on (-1 when keyed records
// are already unique), and the mutation itself. Sorting entries by
// (at, key, link) reproduces one global order no matter which shard — or
// the sequential oracle — executed them.
type resEntry struct {
	at    time.Duration
	key   evKey
	link  int32
	apply func(*Results)
}

func (s *Simulator) journalEntry(link int32, apply func(*Results)) {
	s.journal = append(s.journal, resEntry{at: s.now, key: s.curKey, link: link, apply: apply})
}

// The rec* helpers are the single funnel for Results mutations: immediate
// in the default mode, journaled for end-of-run replay in deterministic
// mode. Both engines emitting through the same journal-sort-replay path is
// what makes the parallel merge byte-identical by construction.

func (s *Simulator) recDelivered(id model.StreamID, lat, at time.Duration) {
	if s.det {
		s.journalEntry(-1, func(r *Results) { r.record(id, lat, at) })
		return
	}
	s.results.record(id, lat, at)
}

func (s *Simulator) recDrop(link int32, id model.StreamID, at time.Duration) {
	if s.det {
		s.journalEntry(link, func(r *Results) { r.recordDrop(id, at) })
		return
	}
	s.results.recordDrop(id, at)
}

func (s *Simulator) recLost(link int32, id model.StreamID, at time.Duration) {
	if s.det {
		s.journalEntry(link, func(r *Results) { r.recordLost(id, at) })
		return
	}
	s.results.recordLost(id, at)
}

func (s *Simulator) recHop(id model.StreamID, hop int, lat time.Duration) {
	if s.det {
		s.journalEntry(-1, func(r *Results) { r.recordHop(id, hop, lat) })
		return
	}
	s.results.recordHop(id, hop, lat)
}

func (s *Simulator) recEmitted(id model.StreamID) {
	if s.det {
		s.journalEntry(-1, func(r *Results) { r.recordEmitted(id) })
		return
	}
	s.results.recordEmitted(id)
}

func (s *Simulator) recEliminated(id model.StreamID) {
	if s.det {
		s.journalEntry(-1, func(r *Results) { r.recordEliminated(id) })
		return
	}
	s.results.recordEliminated(id)
}

func (s *Simulator) recFrame(rec *FrameRecord) {
	if s.det {
		s.journalEntry(-1, func(r *Results) { r.recordFrame(rec) })
		return
	}
	s.results.recordFrame(rec)
}

func (s *Simulator) recConf(id model.StreamID, bound, lat time.Duration, rec *FrameRecord) {
	if s.det {
		s.journalEntry(-1, func(r *Results) { r.recordConformance(id, bound, lat, rec) })
		return
	}
	s.results.recordConformance(id, bound, lat, rec)
}

// replayJournal applies journal parts onto r in the global deterministic
// order. The sort is stable and entries with equal (at, key, link) never
// span shards, so same-event multi-record sequences (e.g. a flush dropping
// several frames) keep their in-event order.
func replayJournal(r *Results, parts [][]resEntry) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	all := make([]resEntry, 0, n)
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.key.hi != b.key.hi {
			return a.key.hi < b.key.hi
		}
		if a.key.lo != b.key.lo {
			return a.key.lo < b.key.lo
		}
		return a.link < b.link
	})
	for i := range all {
		all[i].apply(r)
	}
}

// traceEntry is one buffered JSONL trace line with its ordering triple.
type traceEntry struct {
	at   time.Duration
	key  evKey
	link int32
	line []byte
}

// traceCapture buffers trace lines in deterministic mode.
type traceCapture struct {
	s   *Simulator
	buf []traceEntry
}

// add encodes v exactly as the live sink would (json.Marshal plus newline
// is byte-identical to json.Encoder.Encode) and stamps it with the current
// event's ordering triple.
func (c *traceCapture) add(link int32, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	c.buf = append(c.buf, traceEntry{at: c.s.now, key: c.s.curKey, link: link, line: append(b, '\n')})
}

// writeTraceEntries merges buffered trace parts in global order and writes
// them out.
func writeTraceEntries(w io.Writer, parts [][]traceEntry) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	all := make([]traceEntry, 0, n)
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.key.hi != b.key.hi {
			return a.key.hi < b.key.hi
		}
		if a.key.lo != b.key.lo {
			return a.key.lo < b.key.lo
		}
		return a.link < b.link
	})
	for i := range all {
		_, _ = w.Write(all[i].line)
	}
}

// finalizeDet replays the deterministic run's journaled results and flushes
// the buffered trace. Only the sequential deterministic mode runs this;
// shard journals are merged by MergeShards/WriteMergedTrace instead.
func (s *Simulator) finalizeDet() {
	replayJournal(s.results, [][]resEntry{s.journal})
	if s.trace != nil && s.trace.cap != nil && s.cfg.Trace != nil {
		writeTraceEntries(s.cfg.Trace, [][]traceEntry{s.trace.cap.buf})
	}
}

// listenerShards maps every stream to the shard that runs its last-hop
// processing: the owner of its (main) route's final link.
func listenerShards(cfg *Config, owner func(model.LinkID) int) map[model.StreamID]int {
	m := make(map[model.StreamID]int)
	for id, st := range cfg.Schedule.Streams {
		if len(st.Path) > 0 {
			m[id] = owner(st.Path[len(st.Path)-1])
		}
	}
	for _, e := range cfg.ECT {
		if len(e.Stream.Path) > 0 {
			m[e.Stream.ID] = owner(e.Stream.Path[len(e.Stream.Path)-1])
		}
	}
	for i, be := range cfg.BestEffort {
		if len(be.Path) > 0 {
			m[BEStreamID(i)] = owner(be.Path[len(be.Path)-1])
		}
	}
	return m
}

// CutLinks returns, in network link order, the directed links over which
// the partition induced by owner hands frames between shards: links whose
// route successor (or last-hop listener) is owned elsewhere. The parallel
// engine's lookahead is the minimum serialization-plus-propagation delay
// over these links.
func CutLinks(cfg Config, owner func(model.LinkID) int) []model.LinkID {
	listener := listenerShards(&cfg, owner)
	cut := make(map[model.LinkID]bool)
	mark := func(path []model.LinkID, stream model.StreamID) {
		if len(path) == 0 {
			return
		}
		for i := 0; i+1 < len(path); i++ {
			if owner(path[i+1]) != owner(path[i]) {
				cut[path[i]] = true
			}
		}
		last := path[len(path)-1]
		if dst, ok := listener[stream]; ok && dst != owner(last) {
			cut[last] = true
		}
	}
	for id, st := range cfg.Schedule.Streams {
		if st.Type == model.StreamDet {
			mark(st.Path, id)
		}
	}
	for _, e := range cfg.ECT {
		mark(e.Stream.Path, e.Stream.ID)
		for _, p := range e.ExtraPaths {
			mark(p, e.Stream.ID)
		}
	}
	for i, be := range cfg.BestEffort {
		mark(be.Path, BEStreamID(i))
	}
	out := make([]model.LinkID, 0, len(cut))
	for _, l := range cfg.Network.Links() {
		if cut[l.ID()] {
			out = append(out, l.ID())
		}
	}
	return out
}

// Shard is one partition's simulator instance under the parallel engine's
// control: the engine primes it at construction, then alternates
// RunWindow/Inject rounds under the time-window barrier.
type Shard struct {
	s         *Simulator
	processed int64
}

// NewShard builds and primes the shard with the given index under the
// link-ownership function. emit receives cross-shard handoffs as they are
// generated (during RunWindow, from this shard's goroutine). Recovery
// hooks (Config.OnFault) are not supported: mid-run replanning mutates
// global schedule state no shard owns.
func NewShard(cfg Config, idx int, owner func(model.LinkID) int, emit func(Handoff)) (*Shard, error) {
	if cfg.OnFault != nil {
		return nil, fmt.Errorf("%w: OnFault recovery hooks are not supported by the sharded engine", ErrBadConfig)
	}
	cfg.Deterministic = true
	hooks := &shardHooks{idx: idx, owner: owner, listener: listenerShards(&cfg, owner), emit: emit}
	s, err := newSimulator(cfg, hooks)
	if err != nil {
		return nil, err
	}
	sh := &Shard{s: s}
	s.prime()
	return sh, nil
}

// NextAt returns the timestamp of the shard's earliest pending event.
func (sh *Shard) NextAt() (time.Duration, bool) {
	if sh.s.events.Len() == 0 {
		return 0, false
	}
	return sh.s.events[0].at, true
}

// Inject schedules a handoff received from another shard. Only safe
// between windows (the barrier guarantees the shard's goroutine is parked).
func (sh *Shard) Inject(h Handoff) {
	// Swap the sending shard's ports for this shard's view of the same path.
	h.frame.route = sh.s.routeOf(h.frame.route.links)
	sh.s.push(h.At, h.key, event{kind: evDeliver, frame: h.frame})
}

// RunWindow processes every pending event with timestamp in [now, until),
// stopping at the configured duration like the sequential loop does.
// Handoffs generated during the window go out through the emit hook.
func (sh *Shard) RunWindow(until time.Duration) {
	s := sh.s
	for s.events.Len() > 0 {
		if at := s.events[0].at; at >= until || at > s.cfg.Duration {
			return
		}
		e := s.events.pop()
		sh.processed++
		s.dispatch(&e)
	}
}

// Events returns the number of events the shard has processed.
func (sh *Shard) Events() int64 { return sh.processed }

// FinishObs publishes the shard's end-of-run instrumentation into its
// registry (the engine merges per-shard registries in shard order).
func (sh *Shard) FinishObs() {
	sh.s.mEvents.Add(sh.processed)
}

// MergeShards merges per-shard journals into one Results, byte-identical
// to what the sequential deterministic oracle produces: both paths replay
// the same entries in the same (at, key, link) order.
func MergeShards(cfg Config, shards []*Shard) *Results {
	r := newResults()
	r.hopTracing = cfg.TraceHops
	r.attribOn = cfg.Attribution
	parts := make([][]resEntry, len(shards))
	for i, sh := range shards {
		parts[i] = sh.s.journal
		for _, p := range sh.s.ports {
			r.totalDrops += p.drops
		}
	}
	replayJournal(r, parts)
	return r
}

// WriteMergedTrace writes the shards' buffered trace lines to w in the
// global deterministic order.
func WriteMergedTrace(w io.Writer, shards []*Shard) {
	parts := make([][]traceEntry, 0, len(shards))
	for _, sh := range shards {
		if sh.s.trace != nil && sh.s.trace.cap != nil {
			parts = append(parts, sh.s.trace.cap.buf)
		}
	}
	writeTraceEntries(w, parts)
}
