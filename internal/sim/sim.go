package sim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"etsn/internal/gcl"
	"etsn/internal/model"
	"etsn/internal/obs"
)

// Sentinel errors.
var (
	// ErrBadConfig marks an unusable simulation configuration.
	ErrBadConfig = errors.New("invalid simulation config")
)

// BETraffic is a best-effort background flow: frames of a fixed size
// emitted with exponentially distributed gaps, travelling in the lowest
// traffic class through whatever gate time is left open for it. The paper's
// AVB baseline is defined as "higher priority than background traffic", so
// evaluation scenarios carry such flows.
type BETraffic struct {
	// Path is the flow's route.
	Path []model.LinkID
	// PayloadBytes is the frame payload (default MTU).
	PayloadBytes int
	// MeanGap is the mean inter-frame gap.
	MeanGap time.Duration
	// Priority defaults to model.PriorityBestEffort.
	Priority int
}

// ECTTraffic attaches a stochastic event source to the simulation.
type ECTTraffic struct {
	// Stream describes the event-triggered stream (path, size, minimum
	// interevent time).
	Stream *model.ECT
	// Priority is the traffic class ECT frames travel in: PriorityECT for
	// E-TSN and PERIOD, PriorityAVB for the AVB baseline.
	Priority int
	// Gaps optionally overrides the interevent gap distribution; given
	// the RNG it returns the gap between one event and the next. The
	// default is MinInterevent plus a uniform extra in [0, MinInterevent),
	// which respects the minimum spacing while decorrelating event phase
	// from the schedule.
	Gaps func(rng *rand.Rand) time.Duration
	// ExtraPaths replicates every event's frames over additional routes
	// (802.1CB frame replication); requires Config.Eliminate so the
	// listener deduplicates member copies.
	ExtraPaths [][]model.LinkID
}

// Config describes one simulation run.
type Config struct {
	// Network is the topology.
	Network *model.Network
	// Schedule provides talker offsets for deterministic streams (its
	// probabilistic streams are reservations, not traffic).
	Schedule *model.Schedule
	// GCLs program every output port; ports without a program stay
	// fully open for best effort only.
	GCLs map[model.LinkID]*gcl.PortGCL
	// ECT lists the stochastic event sources.
	ECT []ECTTraffic
	// Reserved marks deterministic streams whose slots are reservations
	// only: no periodic traffic is emitted for them (e.g. the PERIOD
	// baseline's dedicated ECT slots).
	Reserved map[model.StreamID]bool
	// BestEffort lists background flows in the lowest traffic class.
	BestEffort []BETraffic
	// Duration is the simulated time span.
	Duration time.Duration
	// WarmUp discards messages created before this instant.
	WarmUp time.Duration
	// Seed feeds the deterministic RNG.
	Seed int64
	// CBS maps a traffic class to a credit-based shaper idle slope,
	// expressed as a fraction of the link rate (e.g. 0.75 for class A).
	CBS map[int]float64
	// ClockOffset optionally skews each node's local clock (802.1AS
	// residual error injection); nil means perfectly synchronized.
	ClockOffset func(model.NodeID, time.Duration) time.Duration
	// TraceHops records per-hop completion latencies (time from message
	// creation until the frame clears each link) in addition to
	// end-to-end latencies. Off by default; it grows memory linearly with
	// frames x hops.
	TraceHops bool
	// Attribution records a causal latency decomposition for every frame
	// created after the warm-up: per hop, its sojourn splits exactly into
	// queue-wait, gate-wait, preemption delay, serialization, and
	// propagation (see Phase). Off by default; like TraceHops it grows
	// memory with frames x hops, and when off it adds zero allocations to
	// the event loop.
	Attribution bool
	// Bounds maps streams to their analytic worst-case latency from the
	// schedule. Every delivered message of a bounded stream is scored:
	// slack (bound minus latency) feeds a per-stream etsn_sim_slack_ns
	// histogram and the Results conformance accessors, and bound misses
	// are attributed to their dominant cause when Attribution is on.
	Bounds map[model.StreamID]time.Duration
	// LinkLoss maps directed links to an independent per-frame loss
	// probability (a coarse PHY error model for redundancy studies).
	LinkLoss map[model.LinkID]float64
	// Eliminate enables 802.1CB-style duplicate elimination at the
	// listener: the first copy of each (stream, seq, fragment) is
	// accepted, later member copies are discarded. Required when any ECT
	// source replicates over extra paths.
	Eliminate bool
	// Trace, when non-nil, receives a JSONL event stream (enqueue,
	// transmit, deliver, drop, loss) — the simulator's capture file.
	Trace io.Writer
	// Obs, when non-nil, receives runtime metrics: events processed,
	// per-port queue-depth high-water marks, gate opens, drops by cause,
	// delivery latency histograms, and end-of-run throughput. A nil
	// registry disables instrumentation at zero cost.
	Obs *obs.Registry
	// CQF enables 802.1Qch cyclic queuing and forwarding on every port:
	// two traffic classes alternate as receive/transmit buffers each
	// cycle, so a frame admitted in cycle i is forwarded in cycle i+1.
	CQF *CQFConfig
	// Faults lists timed fault injections (link failures, loss bursts,
	// switch reboots, clock steps) applied during the run.
	Faults []Fault
	// OnFault, when non-nil, is invoked at each fault instant after the
	// fault takes effect — the hook a recovery controller uses to replan
	// and Reprogram the network mid-run.
	OnFault func(*Simulator, Fault)
}

// CQFConfig parameterizes 802.1Qch operation.
type CQFConfig struct {
	// CycleTime is the CQF cycle duration; per-hop latency lies in
	// [CycleTime, 2*CycleTime] when the cycle is sized for the load.
	CycleTime time.Duration
	// QueueA and QueueB are the alternating traffic classes; frames
	// enqueued with either class are reassigned to the class that is
	// closed (receiving) in the current cycle.
	QueueA int
	QueueB int
}

// receiveQueue returns the class a frame arriving at local time t must
// join: the one whose gate is closed this cycle.
func (c *CQFConfig) receiveQueue(t time.Duration) int {
	if (t/c.CycleTime)%2 == 0 {
		return c.QueueB // A transmits during even cycles
	}
	return c.QueueA
}

// Simulator executes a configured TSN network run.
type Simulator struct {
	cfg     Config
	rng     *rand.Rand
	now     time.Duration
	seq     int64
	events  eventHeap
	ports   map[model.LinkID]*outPort
	results *Results
	// The operand tables events index, one per kind: ports in Links()
	// order; every frame the run created, recycled through freeFrames;
	// talker loops, one per stream and Reprogram generation; best-effort
	// flows and event sources; and the closures of faults and After
	// callbacks, whose slots recycle through freeFns.
	portTab    []*outPort
	frameTab   []*Frame
	freeFrames []*Frame
	framesMade int // newFrame calls, fresh or recycled
	tct        []tctLoop
	be         []beFlow
	ect        []ectSource
	fns        []func()
	freeFns    []uint32
	// arrived counts received fragments per in-flight message.
	arrived map[msgKey]int
	// seen tracks accepted fragments for 802.1CB duplicate elimination.
	seen map[fragKey]bool
	// trace is the optional event sink.
	trace *tracer
	// gen counts Reprogram calls; TCT talker loops and already scheduled
	// fragments die when the generation they carry goes stale.
	gen int32
	// shed silences streams dropped by graceful degradation.
	shed map[model.StreamID]bool
	// ectPath overrides event-stream routes after a recovery reroute.
	ectPath map[model.StreamID][]model.LinkID
	// routes holds every configured path (and those of schedules Reprogram
	// installs) resolved to ports; arena is the frame arena's current chunk.
	routes map[pathKey]*route
	arena  []Frame
	// clockStep accumulates per-node clock-step faults on top of the
	// configured ClockOffset model.
	clockStep map[model.NodeID]time.Duration
	// attribOn caches cfg.Attribution; ectClass marks the traffic classes
	// carrying event-triggered streams, the boundary preemption delay is
	// charged across.
	attribOn bool
	ectClass [model.NumPriorities]bool
	// slackHist holds one slack histogram per bounded stream (all nil
	// no-ops when cfg.Obs is nil).
	slackHist map[model.StreamID]*obs.Histogram
	// Cached instruments; all nil (free no-ops) when cfg.Obs is nil.
	mEvents       *obs.Counter
	mEventsPerSec *obs.Gauge
	mDelivered    *obs.Counter
	mLost         *obs.Counter
	mLatencyNs    *obs.Histogram
	mDropsJam     *obs.Counter
	mDropsDown    *obs.Counter
	mDropsFlush   *obs.Counter
	mAttribFrames *obs.Counter
	mBoundChecked *obs.Counter
	mBoundMiss    *obs.Counter
}

// tctLoop is one deterministic stream's talker under one Reprogram
// generation: cycle is the next cycle to emit. A loop whose generation has
// gone stale stops at its next tick.
type tctLoop struct {
	gen     int32
	stream  *model.Stream
	route   *route
	offsets []time.Duration
	cycle   int64
}

// beFlow is one best-effort flow's source: its configuration (payload
// defaulted), route and name, the instant of its pending tick, and the
// sequence number of its next frame.
type beFlow struct {
	cfg   BETraffic
	route *route
	id    model.StreamID
	at    time.Duration
	seq   int64
}

// ectSource is one event source: the instant of its pending event and
// that event's sequence number.
type ectSource struct {
	cfg ECTTraffic
	at  time.Duration
	seq int64
}

type fragKey struct {
	stream model.StreamID
	seq    int64
	frag   int
}

type msgKey struct {
	stream model.StreamID
	seq    int64
}

// New validates the configuration and builds a simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("%w: nil network", ErrBadConfig)
	}
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("%w: nil schedule", ErrBadConfig)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("%w: duration %v", ErrBadConfig, cfg.Duration)
	}
	for _, e := range cfg.ECT {
		if e.Stream == nil {
			return nil, fmt.Errorf("%w: nil ECT stream", ErrBadConfig)
		}
		if e.Priority < 0 || e.Priority >= model.NumPriorities {
			return nil, fmt.Errorf("%w: ECT %q priority %d", ErrBadConfig, e.Stream.ID, e.Priority)
		}
		if len(e.ExtraPaths) > 0 && !cfg.Eliminate {
			return nil, fmt.Errorf("%w: ECT %q replicates but Eliminate is off", ErrBadConfig, e.Stream.ID)
		}
		if e.Stream.MinInterevent <= 0 {
			return nil, fmt.Errorf("%w: ECT %q minimum interevent time %v", ErrBadConfig, e.Stream.ID, e.Stream.MinInterevent)
		}
	}
	for lid, p := range cfg.LinkLoss {
		if p < 0 || p >= 1 {
			return nil, fmt.Errorf("%w: loss %v on %s", ErrBadConfig, p, lid)
		}
	}
	if c := cfg.CQF; c != nil {
		if c.CycleTime <= 0 {
			return nil, fmt.Errorf("%w: CQF cycle %v", ErrBadConfig, c.CycleTime)
		}
		if c.QueueA == c.QueueB || c.QueueA < 0 || c.QueueB < 0 ||
			c.QueueA >= model.NumPriorities || c.QueueB >= model.NumPriorities {
			return nil, fmt.Errorf("%w: CQF queues %d/%d", ErrBadConfig, c.QueueA, c.QueueB)
		}
	}
	for _, f := range cfg.Faults {
		if err := f.validate(cfg.Network); err != nil {
			return nil, err
		}
	}
	for id, b := range cfg.Bounds {
		if b <= 0 {
			return nil, fmt.Errorf("%w: bound %v for stream %q", ErrBadConfig, b, id)
		}
	}
	s := &Simulator{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		ports:     make(map[model.LinkID]*outPort),
		results:   newResults(),
		arrived:   make(map[msgKey]int),
		seen:      make(map[fragKey]bool),
		shed:      make(map[model.StreamID]bool),
		ectPath:   make(map[model.StreamID][]model.LinkID),
		routes:    make(map[pathKey]*route),
		clockStep: make(map[model.NodeID]time.Duration),
	}
	if cfg.Trace != nil {
		s.trace = newTracer(cfg.Trace)
	}
	s.attribOn = cfg.Attribution
	s.results.hopTracing = cfg.TraceHops
	s.results.attribOn = cfg.Attribution
	for _, e := range cfg.ECT {
		s.ectClass[e.Priority] = true
	}
	// A nil cfg.Obs yields nil instruments whose methods are no-ops, so the
	// hot paths below stay branch-light and allocation-free when disabled.
	s.mEvents = cfg.Obs.Counter("etsn_sim_events_total")
	s.mEventsPerSec = cfg.Obs.Gauge("etsn_sim_events_per_sec")
	s.mDelivered = cfg.Obs.Counter("etsn_sim_delivered_total")
	s.mLost = cfg.Obs.Counter("etsn_sim_lost_total")
	s.mLatencyNs = cfg.Obs.Histogram("etsn_sim_latency_ns")
	s.mDropsJam = cfg.Obs.Counter(`etsn_sim_drops_total{cause="jam"}`)
	s.mDropsDown = cfg.Obs.Counter(`etsn_sim_drops_total{cause="down"}`)
	s.mDropsFlush = cfg.Obs.Counter(`etsn_sim_drops_total{cause="flush"}`)
	s.mAttribFrames = cfg.Obs.Counter("etsn_sim_attrib_frames_total")
	s.mBoundChecked = cfg.Obs.Counter("etsn_sim_bound_checked_total")
	s.mBoundMiss = cfg.Obs.Counter("etsn_sim_bound_miss_total")
	if len(cfg.Bounds) > 0 {
		s.slackHist = make(map[model.StreamID]*obs.Histogram, len(cfg.Bounds))
		for id := range cfg.Bounds {
			s.slackHist[id] = cfg.Obs.Histogram(obs.Labels("etsn_sim_slack_ns", "stream", string(id)))
		}
	}
	for _, link := range cfg.Network.Links() {
		program := cfg.GCLs[link.ID()]
		if program == nil {
			// Unprogrammed port: everything open all the time.
			program = &gcl.PortGCL{Link: link.ID(), Cycle: time.Millisecond,
				Entries: []gcl.Entry{{Duration: time.Millisecond, Gates: 0xFF}}}
		}
		p := &outPort{sim: s, idx: uint32(len(s.portTab)), link: link, program: program, shapers: make(map[int]*shaper)}
		p.mQueueHWM = cfg.Obs.Gauge(obs.Labels("etsn_sim_queue_depth_hwm", "link", link.ID().String()))
		p.mGateOpens = cfg.Obs.Counter(obs.Labels("etsn_sim_gate_opens_total", "link", link.ID().String()))
		p.buildWindows()
		for pri, frac := range cfg.CBS {
			p.shapers[pri] = newShaper(frac*float64(link.Bandwidth), float64(link.Bandwidth))
		}
		s.ports[link.ID()] = p
		s.portTab = append(s.portTab, p)
	}
	for _, e := range cfg.ECT {
		for _, path := range append([][]model.LinkID{e.Stream.Path}, e.ExtraPaths...) {
			if err := s.resolve(path); err != nil {
				return nil, fmt.Errorf("ECT %q: %w", e.Stream.ID, err)
			}
		}
	}
	for i, be := range cfg.BestEffort {
		if be.Priority < 0 || be.Priority >= model.NumPriorities {
			return nil, fmt.Errorf("%w: best-effort flow %d priority %d", ErrBadConfig, i, be.Priority)
		}
		if len(be.Path) == 0 {
			continue // the flow is never started
		}
		if err := s.resolve(be.Path); err != nil {
			return nil, fmt.Errorf("best-effort flow %d: %w", i, err)
		}
	}
	if err := s.resolveSchedule(cfg.Schedule); err != nil {
		return nil, err
	}
	return s, nil
}

// resolveSchedule resolves every path a schedule names: deterministic
// streams emit on theirs, possibilities carry their event stream's reroute.
func (s *Simulator) resolveSchedule(sc *model.Schedule) error {
	for id, st := range sc.Streams {
		if len(st.Path) == 0 {
			continue
		}
		if err := s.resolve(st.Path); err != nil {
			return fmt.Errorf("stream %q: %w", id, err)
		}
	}
	return nil
}

// newAttrib allocates a frame's attribution record, or nil (the free
// no-op) when attribution is off or the frame pre-dates the warm-up.
func (s *Simulator) newAttrib(f *Frame) *frameAttrib {
	if !s.attribOn || f.Created < s.cfg.WarmUp {
		return nil
	}
	return &frameAttrib{rec: FrameRecord{
		Stream:    f.Stream,
		Seq:       f.Seq,
		Frag:      f.Frag,
		Priority:  f.Priority,
		CreatedNs: int64(f.Created),
	}}
}

// localTime maps simulation time to a node's local clock, including any
// injected clock-step faults.
func (s *Simulator) localTime(node model.NodeID, t time.Duration) time.Duration {
	out := t
	if s.cfg.ClockOffset != nil {
		out += s.cfg.ClockOffset(node, t)
	}
	if len(s.clockStep) > 0 {
		out += s.clockStep[node]
	}
	return out
}

// push puts an event on the heap under its time and the next insertion
// sequence.
func (s *Simulator) push(at time.Duration, kind evKind, op uint32) {
	if at < s.now {
		at = s.now
	}
	s.events.push(event{at: at, seq: s.nextSeq(), op: op, kind: kind})
}

// pushFn schedules a closure: a fault injection or an After callback.
func (s *Simulator) pushFn(at time.Duration, fn func()) {
	var slot uint32
	if n := len(s.freeFns); n > 0 {
		slot = s.freeFns[n-1]
		s.freeFns = s.freeFns[:n-1]
		s.fns[slot] = fn
	} else {
		slot = uint32(len(s.fns))
		s.fns = append(s.fns, fn)
	}
	s.push(at, evFn, slot)
}

func (s *Simulator) nextSeq() int64 {
	s.seq++
	return s.seq
}

// dispatch runs one popped event.
func (s *Simulator) dispatch(e *event) {
	s.now = e.at
	switch e.kind {
	case evDeliver:
		s.deliver(s.frameTab[e.op])
	case evWake:
		s.portTab[e.op].wake()
	case evEmit:
		f := s.frameTab[e.op]
		if f.gen != s.gen {
			s.release(f)
			return
		}
		f.attrib = s.newAttrib(f)
		f.route.ports[0].enqueue(f)
	case evTCT:
		if l := &s.tct[e.op]; l.gen == s.gen {
			l.cycle++
			s.scheduleTCTCycle(e.op)
		}
	case evBE:
		s.beTick(e.op)
	case evECT:
		s.ectTick(e.op)
	default:
		fn := s.fns[e.op]
		s.fns[e.op] = nil
		s.freeFns = append(s.freeFns, e.op)
		fn()
	}
}

// prime schedules the initial event population: fault injections, TCT
// talker cycles, and the first occurrence of every stochastic source.
func (s *Simulator) prime() {
	for _, f := range s.cfg.Faults {
		s.pushFn(f.At, func() { s.applyFault(f) })
	}
	s.launchTCT(0)
	s.startECTSources()
	s.startBESources()
}

// Run executes the simulation and returns the collected results.
func (s *Simulator) Run() (*Results, error) {
	s.prime()
	// The event loop keeps a local counter and publishes once at the end so
	// instrumentation adds no per-event work beyond one integer increment.
	wallStart := time.Now()
	var processed int64
	for s.events.Len() > 0 {
		e := s.events.pop()
		if e.at > s.cfg.Duration {
			break
		}
		processed++
		s.dispatch(&e)
	}
	s.mEvents.Add(processed)
	if elapsed := time.Since(wallStart).Seconds(); elapsed > 0 {
		s.mEventsPerSec.Set(int64(float64(processed) / elapsed))
	}
	for _, p := range s.portTab {
		s.results.totalDrops += p.drops
	}
	return s.results, nil
}

// launchTCT schedules (or, after Reprogram, reschedules) periodic emissions
// for every deterministic stream in the current schedule: fragment j of each
// cycle is handed to the talker port exactly at its scheduled slot offset
// (CUC-configured talker offsets). Streams start at their first period
// boundary at or after from; loops from earlier generations expire.
func (s *Simulator) launchTCT(from time.Duration) {
	gen := s.gen
	ids := make([]model.StreamID, 0, len(s.cfg.Schedule.Streams))
	for id := range s.cfg.Schedule.Streams {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := s.cfg.Schedule.Streams[id]
		if st.Type != model.StreamDet || st.Reserve || s.cfg.Reserved[st.ID] || s.shed[st.ID] {
			continue
		}
		rt := s.routeOf(st.Path)
		slots := s.cfg.Schedule.StreamSlots(st.ID, st.Path[0])
		if len(slots) == 0 {
			continue
		}
		frames := st.Frames()
		if frames > len(slots) {
			frames = len(slots)
		}
		offsets := make([]time.Duration, frames)
		unit := time.Duration(int64(st.Period) / slots[0].Period)
		for j := 0; j < frames; j++ {
			offsets[j] = time.Duration(slots[j].VirtualOffset()) * unit
		}
		cycle := int64(0)
		if from > 0 {
			cycle = int64((from + st.Period - 1) / st.Period)
		}
		s.tct = append(s.tct, tctLoop{gen: gen, stream: st, route: rt, offsets: offsets, cycle: cycle})
		s.scheduleTCTCycle(uint32(len(s.tct) - 1))
	}
}

// scheduleTCTCycle emits the fragments of talker loop l's current cycle at
// their offsets and schedules the loop's next tick one period on.
func (s *Simulator) scheduleTCTCycle(l uint32) {
	loop := &s.tct[l]
	st, offsets := loop.stream, loop.offsets
	base := time.Duration(loop.cycle) * st.Period
	if base > s.cfg.Duration {
		return
	}
	created := base + offsets[0]
	frags := len(offsets)
	for j := 0; j < frags; j++ {
		f := s.newFrame(Frame{
			Stream:       st.ID,
			Seq:          loop.cycle,
			Frag:         j,
			FragCount:    frags,
			Priority:     st.Priority,
			PayloadBytes: fragmentBytes(st.LengthBytes, frags, j),
			Created:      created,
			route:        loop.route,
			gen:          loop.gen,
		})
		s.push(base+offsets[j], evEmit, f.idx)
	}
	s.push(base+st.Period, evTCT, l)
}

// startECTSources schedules the first occurrence of every event source.
func (s *Simulator) startECTSources() {
	for _, src := range s.cfg.ECT {
		// First event lands uniformly inside the first interevent window.
		first := time.Duration(s.rng.Int63n(int64(src.Stream.MinInterevent)))
		s.ect = append(s.ect, ectSource{cfg: src})
		s.scheduleECTEvent(uint32(len(s.ect)-1), first)
	}
}

// scheduleECTEvent sets event source i's next event for at, unless that
// lies past the end of the run.
func (s *Simulator) scheduleECTEvent(i uint32, at time.Duration) {
	if at > s.cfg.Duration {
		return
	}
	s.ect[i].at = at
	s.push(at, evECT, i)
}

// ectGap draws the gap between one event of a source and the next: the
// source's Gaps, or by default MinInterevent plus a uniform extra in
// [0, MinInterevent).
func (s *Simulator) ectGap(src *ECTTraffic) time.Duration {
	if src.Gaps != nil {
		return src.Gaps(s.rng)
	}
	min := src.Stream.MinInterevent
	return min + time.Duration(s.rng.Int63n(int64(min)))
}

// ectTick fires event source i: one message over its current route and
// every replica path, then the next event.
func (s *Simulator) ectTick(i uint32) {
	src := &s.ect[i]
	at, id := src.at, src.cfg.Stream.ID
	if s.shed[id] {
		// Shed event sources stay silent but keep ticking so a later
		// Reprogram could resume them.
		s.scheduleECTEvent(i, at+s.ectGap(&src.cfg))
		return
	}
	path := src.cfg.Stream.Path
	if p := s.ectPath[id]; p != nil {
		path = p
	}
	s.results.recordEmitted(id)
	s.emitECT(src, s.routeOf(path))
	for _, extra := range src.cfg.ExtraPaths {
		s.emitECT(src, s.routeOf(extra))
	}
	src.seq++
	s.scheduleECTEvent(i, at+s.ectGap(&src.cfg))
}

// emitECT hands the fragments of source src's current message to the
// talker port of one route.
func (s *Simulator) emitECT(src *ectSource, rt *route) {
	st := src.cfg.Stream
	frags := st.Frames()
	for j := 0; j < frags; j++ {
		f := s.newFrame(Frame{
			Stream:       st.ID,
			Seq:          src.seq,
			Frag:         j,
			FragCount:    frags,
			Priority:     src.cfg.Priority,
			PayloadBytes: fragmentBytes(st.LengthBytes, frags, j),
			Created:      src.at,
			route:        rt,
		})
		f.attrib = s.newAttrib(f)
		rt.ports[0].enqueue(f)
	}
}

// BEStreamID names the i-th best-effort background flow in results and shed
// sets.
func BEStreamID(flow int) model.StreamID {
	return model.StreamID(fmt.Sprintf("be%d", flow))
}

// startBESources schedules background best-effort flows with exponential
// inter-arrival gaps.
func (s *Simulator) startBESources() {
	for i, be := range s.cfg.BestEffort {
		if be.PayloadBytes == 0 {
			be.PayloadBytes = model.MTUBytes
		}
		if be.MeanGap <= 0 || len(be.Path) == 0 {
			continue
		}
		first := time.Duration(s.rng.ExpFloat64() * float64(be.MeanGap))
		s.be = append(s.be, beFlow{cfg: be, route: s.routeOf(be.Path), id: BEStreamID(i)})
		s.scheduleBEFrame(uint32(len(s.be)-1), first)
	}
}

// scheduleBEFrame sets flow i's next frame for at, unless that lies past
// the end of the run.
func (s *Simulator) scheduleBEFrame(i uint32, at time.Duration) {
	if at > s.cfg.Duration {
		return
	}
	s.be[i].at = at
	s.push(at, evBE, i)
}

// beTick emits flow i's next frame and draws the gap to the one after.
func (s *Simulator) beTick(i uint32) {
	be := &s.be[i]
	at := be.at
	gap := time.Duration(s.rng.ExpFloat64() * float64(be.cfg.MeanGap))
	if s.shed[be.id] {
		s.scheduleBEFrame(i, at+gap)
		return
	}
	f := s.newFrame(Frame{
		Stream:       be.id,
		Seq:          be.seq,
		FragCount:    1,
		Priority:     be.cfg.Priority,
		PayloadBytes: be.cfg.PayloadBytes,
		Created:      at,
		route:        be.route,
	})
	f.attrib = s.newAttrib(f)
	be.seq++
	be.route.ports[0].enqueue(f)
	s.scheduleBEFrame(i, at+gap)
}

// deliver handles a frame that finished crossing a link: forward at the next
// switch, or complete the message at the destination device.
func (s *Simulator) deliver(f *Frame) {
	s.trace.emit(s.now, "deliver", f, f.CurrentLink())
	f.attrib.endHop()
	if s.cfg.TraceHops && f.Created >= s.cfg.WarmUp {
		s.results.recordHop(f.Stream, f.Hop, s.now-f.Created)
	}
	if f.LastHop() {
		if s.cfg.Eliminate {
			fk := fragKey{stream: f.Stream, seq: f.Seq, frag: f.Frag}
			if s.seen[fk] {
				s.results.recordEliminated(f.Stream)
				s.release(f)
				return
			}
			s.seen[fk] = true
		}
		if f.attrib != nil {
			f.attrib.rec.DeliveredNs = int64(s.now)
			s.results.recordFrame(&f.attrib.rec)
			s.trace.emitAttrib(s.now, &f.attrib.rec)
			s.mAttribFrames.Inc()
		}
		if s.complete(f) && f.Created >= s.cfg.WarmUp {
			lat := s.now - f.Created
			s.results.record(f.Stream, lat, s.now)
			s.mDelivered.Inc()
			s.mLatencyNs.Observe(int64(lat))
			if bound, ok := s.cfg.Bounds[f.Stream]; ok {
				s.scoreBound(f, bound, lat)
			}
		}
		s.release(f)
		return
	}
	f.Hop++
	f.route.ports[f.Hop].enqueue(f)
}

// complete counts a fragment that reached its listener and reports whether
// it was the message's last; a single-fragment message needs no count.
func (s *Simulator) complete(f *Frame) bool {
	if f.FragCount == 1 {
		return true
	}
	k := msgKey{stream: f.Stream, seq: f.Seq}
	n := s.arrived[k] + 1
	if n == f.FragCount {
		delete(s.arrived, k)
		return true
	}
	s.arrived[k] = n
	return false
}

// scoreBound scores a completed message against its stream's analytic
// worst case: slack feeds the per-stream histogram (negative slack clamps
// to the zero bucket there; the signed minimum lives in Results), misses
// bump the miss counter and, when attribution is on, are charged to the
// dominant phase of the completing fragment.
func (s *Simulator) scoreBound(f *Frame, bound, lat time.Duration) {
	var rec *FrameRecord
	if f.attrib != nil {
		rec = &f.attrib.rec
	}
	s.results.recordConformance(f.Stream, bound, lat, rec)
	s.mBoundChecked.Inc()
	slack := bound - lat
	if slack < 0 {
		s.mBoundMiss.Inc()
	}
	s.slackHist[f.Stream].Observe(int64(slack))
	s.trace.emitSlack(s.now, f, lat, bound)
}

// fragmentBytes returns the payload of fragment j of a message: full MTUs
// followed by the remainder.
func fragmentBytes(total, frags, j int) int {
	if j == frags-1 {
		return total - (frags-1)*model.MTUBytes
	}
	return model.MTUBytes
}
