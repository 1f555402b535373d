package sim

import (
	"fmt"
	"time"

	"etsn/internal/model"
)

// Frame is one Ethernet frame in flight: a fragment of a stream message.
type Frame struct {
	// Stream is the stream the frame belongs to. For event-triggered
	// traffic this is the ECT stream ID (not a possibility).
	Stream model.StreamID
	// Seq numbers the message within its stream.
	Seq int64
	// Frag and FragCount identify the fragment within the message.
	Frag      int
	FragCount int
	// Priority is the 802.1Q traffic class the frame travels in.
	Priority int
	// PayloadBytes is the fragment payload size.
	PayloadBytes int
	// Created is the time the message was handed to the talker: the
	// scheduled emission for TCT, the event occurrence for ECT.
	Created time.Duration
	// route is the frame's path, resolved to output ports; Hop indexes the
	// link currently being crossed (or about to be crossed).
	route *route
	Hop   int
	// attrib carries the frame's causal latency record; nil (a free
	// no-op) unless Config.Attribution is on and the frame post-dates the
	// warm-up.
	attrib *frameAttrib
	// gen is the Reprogram generation a TCT fragment was scheduled under;
	// a stale fragment is discarded when its emission comes up.
	gen int32
	// idx is the frame's place in the run's frameTab, the operand of its
	// evDeliver and evEmit events; it survives recycling.
	idx uint32
}

// route is a path resolved once to its output ports, so forwarding does not
// hash a LinkID per hop.
type route struct {
	links []model.LinkID
	ports []*outPort
}

// pathKey identifies a configured path by its backing array, which the
// simulator never copies.
type pathKey struct {
	first *model.LinkID
	n     int
}

// resolve adds a path's route to s.routes; an empty path or a link the
// network does not have is a configuration error.
func (s *Simulator) resolve(path []model.LinkID) error {
	if len(path) == 0 {
		return fmt.Errorf("%w: empty path", ErrBadConfig)
	}
	r := &route{links: path, ports: make([]*outPort, len(path))}
	for i, l := range path {
		if _, ok := s.cfg.Network.LinkByID(l); !ok {
			return fmt.Errorf("%w: path over unknown link %s", ErrBadConfig, l)
		}
		r.ports[i] = s.ports[l]
	}
	s.routes[pathKey{&path[0], len(path)}] = r
	return nil
}

// routeOf returns the route of a path resolve has seen.
func (s *Simulator) routeOf(path []model.LinkID) *route {
	return s.routes[pathKey{&path[0], len(path)}]
}

// newFrame copies f into a recycled frame, or into the run's frame arena,
// which allocates frames a chunk at a time and never moves one: queues hold
// *Frame, events hold the frame's frameTab index.
func (s *Simulator) newFrame(f Frame) *Frame {
	var p *Frame
	s.framesMade++
	if n := len(s.freeFrames); n > 0 {
		p = s.freeFrames[n-1]
		s.freeFrames = s.freeFrames[:n-1]
		f.idx = p.idx
	} else {
		if len(s.arena) == 0 {
			s.arena = make([]Frame, 256)
		}
		p, s.arena = &s.arena[0], s.arena[1:]
		f.idx = uint32(len(s.frameTab))
		s.frameTab = append(s.frameTab, p)
	}
	*p = f
	return p
}

// release returns a dead frame to the free list: it was delivered at its
// last hop, eliminated as a duplicate, dropped, lost on the wire, or
// outlived by a Reprogram. Its pointers are cleared; an attribution record
// lives in its own allocation, so Results keeps it after the frame is reused.
func (s *Simulator) release(f *Frame) {
	*f = Frame{idx: f.idx}
	s.freeFrames = append(s.freeFrames, f)
}

// CurrentLink returns the link the frame must traverse next.
func (f *Frame) CurrentLink() model.LinkID { return f.route.links[f.Hop] }

// LastHop reports whether the frame is on its final link.
func (f *Frame) LastHop() bool { return f.Hop == len(f.route.links)-1 }
