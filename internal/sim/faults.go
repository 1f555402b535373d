package sim

import (
	"fmt"
	"time"

	"etsn/internal/gcl"
	"etsn/internal/model"
)

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// FaultLinkDown takes a physical link out of service: queued frames on
	// both directed ports are flushed and every frame handed to them until
	// the matching FaultLinkUp is dropped.
	FaultLinkDown FaultKind = iota + 1
	// FaultLinkUp returns a failed link to service.
	FaultLinkUp
	// FaultLossBurst raises a link's per-frame loss probability to Loss for
	// Duration (a burst of PHY errors, e.g. EMI near a welding robot).
	FaultLossBurst
	// FaultSwitchReboot models a switch power-cycling: every output port of
	// the node flushes its queues and stays dark (dropping arrivals) for
	// Duration before gates resume.
	FaultSwitchReboot
	// FaultClockStep offsets a node's local clock by Step from the fault
	// instant on (an 802.1AS holdover error; the skew persists until a
	// compensating step is injected).
	FaultClockStep
)

// String names the fault kind for reports and traces.
func (k FaultKind) String() string {
	switch k {
	case FaultLinkDown:
		return "link-down"
	case FaultLinkUp:
		return "link-up"
	case FaultLossBurst:
		return "loss-burst"
	case FaultSwitchReboot:
		return "switch-reboot"
	case FaultClockStep:
		return "clock-step"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault is one timed fault-injection event. Link faults apply to both
// directions of the physical link; node faults apply to every port of the
// node.
type Fault struct {
	// At is the injection instant in simulation time.
	At time.Duration
	// Kind selects the fault class.
	Kind FaultKind
	// Link names the affected link for FaultLinkDown/FaultLinkUp/
	// FaultLossBurst (either direction identifies the physical link).
	Link model.LinkID
	// Node names the affected node for FaultSwitchReboot/FaultClockStep.
	Node model.NodeID
	// Duration is the burst length (FaultLossBurst) or dark time
	// (FaultSwitchReboot).
	Duration time.Duration
	// Loss is the burst loss probability in [0,1] for FaultLossBurst.
	Loss float64
	// Step is the clock offset for FaultClockStep.
	Step time.Duration
}

// validate checks one fault against the topology.
func (f Fault) validate(n *model.Network) error {
	if f.At < 0 {
		return fmt.Errorf("%w: %s fault at %v", ErrBadConfig, f.Kind, f.At)
	}
	switch f.Kind {
	case FaultLinkDown, FaultLinkUp:
		if _, ok := n.LinkByID(f.Link); !ok {
			return fmt.Errorf("%w: %s fault on unknown link %s", ErrBadConfig, f.Kind, f.Link)
		}
	case FaultLossBurst:
		if _, ok := n.LinkByID(f.Link); !ok {
			return fmt.Errorf("%w: loss burst on unknown link %s", ErrBadConfig, f.Link)
		}
		if f.Loss <= 0 || f.Loss > 1 {
			return fmt.Errorf("%w: burst loss %v on %s", ErrBadConfig, f.Loss, f.Link)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("%w: burst duration %v on %s", ErrBadConfig, f.Duration, f.Link)
		}
	case FaultSwitchReboot:
		if _, ok := n.Node(f.Node); !ok {
			return fmt.Errorf("%w: reboot of unknown node %s", ErrBadConfig, f.Node)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("%w: reboot dark time %v on %s", ErrBadConfig, f.Duration, f.Node)
		}
	case FaultClockStep:
		if _, ok := n.Node(f.Node); !ok {
			return fmt.Errorf("%w: clock step on unknown node %s", ErrBadConfig, f.Node)
		}
		if f.Step == 0 {
			return fmt.Errorf("%w: zero clock step on %s", ErrBadConfig, f.Node)
		}
	default:
		return fmt.Errorf("%w: unknown fault kind %d", ErrBadConfig, int(f.Kind))
	}
	return nil
}

// bothDirections expands a physical link to its two directed ports, in
// canonical (lexicographic) order so fault handling visits ports the same
// way regardless of which direction named the link.
func bothDirections(l model.LinkID) [2]model.LinkID {
	a, b := l, l.Reverse()
	if b.String() < a.String() {
		a, b = b, a
	}
	return [2]model.LinkID{a, b}
}

// applyFault mutates port/node state at the fault instant and then invokes
// the OnFault hook (the CNC's fault-notification path).
func (s *Simulator) applyFault(f Fault) {
	switch f.Kind {
	case FaultLinkDown:
		for _, lid := range bothDirections(f.Link) {
			if p := s.ports[lid]; p != nil {
				p.down = true
				p.flush()
			}
		}
	case FaultLinkUp:
		for _, lid := range bothDirections(f.Link) {
			if p := s.ports[lid]; p != nil && p.down {
				p.down = false
				p.pushWake(s.now, s.nextSeq())
			}
		}
	case FaultLossBurst:
		for _, lid := range bothDirections(f.Link) {
			if p := s.ports[lid]; p != nil {
				p.burstLoss = f.Loss
				p.burstUntil = s.now + f.Duration
			}
		}
	case FaultSwitchReboot:
		// Iterate links in deterministic order so drop accounting is
		// reproducible.
		for _, link := range s.cfg.Network.Links() {
			if link.ID().From != f.Node {
				continue
			}
			if p := s.ports[link.ID()]; p != nil {
				p.flush()
				p.darkUntil = s.now + f.Duration
				p.pushWake(p.darkUntil, s.nextSeq())
			}
		}
	case FaultClockStep:
		s.clockStep[f.Node] += f.Step
	}
	if s.cfg.OnFault != nil {
		s.cfg.OnFault(s, f)
	}
}

// Now returns the current simulation time (valid inside event callbacks).
func (s *Simulator) Now() time.Duration { return s.now }

// After runs fn at Now()+delay; recovery hooks use it to model fault
// detection and replanning latency before redistributing a schedule.
func (s *Simulator) After(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.pushFn(s.now+delay, fn)
}

// Reprogram installs a new schedule and fresh gate programs mid-run — the
// CNC's recovery redistribution. Every port rebuilds its gate windows
// immediately, talker loops of deterministic streams restart on the new
// schedule at their next period boundary, event sources pick up rerouted
// paths at their next event, and streams in shed stop emitting (graceful
// degradation). In-flight frames keep their old routes and are dropped if
// they meet a dead port.
func (s *Simulator) Reprogram(schedule *model.Schedule, gcls map[model.LinkID]*gcl.PortGCL, shed map[model.StreamID]bool) error {
	if schedule == nil {
		return fmt.Errorf("%w: reprogram with nil schedule", ErrBadConfig)
	}
	if err := s.resolveSchedule(schedule); err != nil {
		return err
	}
	s.cfg.Schedule = schedule
	s.cfg.GCLs = gcls
	s.shed = make(map[model.StreamID]bool, len(shed))
	for id, on := range shed {
		if on {
			s.shed[id] = true
		}
	}
	// Wake every port in Links() order, so the wakes' places in the event
	// order do not follow the randomized iteration order of a map.
	for _, p := range s.portTab {
		lid := p.link.ID()
		program := gcls[lid]
		if program == nil {
			program = &gcl.PortGCL{Link: lid, Cycle: time.Millisecond,
				Entries: []gcl.Entry{{Duration: time.Millisecond, Gates: 0xFF}}}
		}
		p.program = program
		p.buildWindows()
		p.pushWake(s.now, s.nextSeq())
	}
	// Rerouted event streams: each surviving possibility carries its
	// parent's new path.
	for _, st := range schedule.Streams {
		if st.Type == model.StreamProb && st.Parent != "" && len(st.Path) > 0 {
			s.ectPath[st.Parent] = st.Path
		}
	}
	s.gen++
	s.launchTCT(s.now)
	return nil
}
