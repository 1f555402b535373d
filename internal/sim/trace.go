package sim

import (
	"io"
	"time"

	"etsn/internal/model"
	"etsn/internal/obs"
)

// TraceEvent is one line of the JSONL event trace: the simulator's
// equivalent of a capture file, with the per-event fields an analysis
// script needs. Attribution and conformance captures add separate line
// kinds (AttribEvent, SlackEvent) without touching this schema.
type TraceEvent struct {
	// TimeNs is the simulation time in nanoseconds.
	TimeNs int64 `json:"t_ns"`
	// Kind is "enqueue", "tx", "deliver", "drop", or "lost".
	Kind string `json:"kind"`
	// Stream, Seq, and Frag identify the frame.
	Stream string `json:"stream"`
	Seq    int64  `json:"seq"`
	Frag   int    `json:"frag"`
	// Link is the directed link the event happened on.
	Link string `json:"link"`
	// Priority is the traffic class at event time (CQF may reassign it).
	Priority int `json:"priority"`
}

// tracer serializes trace events over the shared obs JSONL transport. The
// line schema (TraceEvent) is unchanged from the pre-obs tracer: one JSON
// object per line, fields in declaration order.
type tracer struct {
	sink *obs.LineSink
}

func newTracer(w io.Writer) *tracer {
	return &tracer{sink: obs.NewLineSink(w)}
}

// AttribHop is the JSONL rendering of one HopRecord.
type AttribHop struct {
	Link      string `json:"link"`
	ArriveNs  int64  `json:"arrive_ns"`
	StartNs   int64  `json:"start_ns"`
	QueueNs   int64  `json:"queue_ns"`
	GateNs    int64  `json:"gate_ns"`
	PreemptNs int64  `json:"preempt_ns"`
	TxNs      int64  `json:"tx_ns"`
	PropNs    int64  `json:"prop_ns"`
}

// AttribEvent is one attribution line of the JSONL trace (kind "attrib"):
// the causal record of one delivered frame. It is a separate line kind —
// the TraceEvent schema is unchanged.
type AttribEvent struct {
	TimeNs      int64       `json:"t_ns"`
	Kind        string      `json:"kind"`
	Stream      string      `json:"stream"`
	Seq         int64       `json:"seq"`
	Frag        int         `json:"frag"`
	Priority    int         `json:"priority"`
	CreatedNs   int64       `json:"created_ns"`
	EnqueuedNs  int64       `json:"enqueued_ns"`
	DeliveredNs int64       `json:"delivered_ns"`
	Hops        []AttribHop `json:"hops"`
}

// SlackEvent is one bound-conformance line of the JSONL trace (kind
// "slack"): a completed message scored against its analytic worst case.
type SlackEvent struct {
	TimeNs  int64  `json:"t_ns"`
	Kind    string `json:"kind"`
	Stream  string `json:"stream"`
	Seq     int64  `json:"seq"`
	LatNs   int64  `json:"lat_ns"`
	BoundNs int64  `json:"bound_ns"`
	SlackNs int64  `json:"slack_ns"`
}

func (t *tracer) emit(now time.Duration, kind string, f *Frame, link model.LinkID) {
	if t == nil {
		return
	}
	// Encoding errors cannot be surfaced per event; the trace is a debug
	// artifact, so a failed write simply truncates it.
	t.sink.Emit(TraceEvent{
		TimeNs:   int64(now),
		Kind:     kind,
		Stream:   string(f.Stream),
		Seq:      f.Seq,
		Frag:     f.Frag,
		Link:     link.String(),
		Priority: f.Priority,
	})
}

func (t *tracer) emitAttrib(now time.Duration, rec *FrameRecord) {
	if t == nil {
		return
	}
	hops := make([]AttribHop, len(rec.Hops))
	for i := range rec.Hops {
		h := &rec.Hops[i]
		hops[i] = AttribHop{
			Link:      h.Link.String(),
			ArriveNs:  h.ArriveNs,
			StartNs:   h.StartNs,
			QueueNs:   h.QueueNs,
			GateNs:    h.GateNs,
			PreemptNs: h.PreemptNs,
			TxNs:      h.TxNs,
			PropNs:    h.PropNs,
		}
	}
	t.sink.Emit(AttribEvent{
		TimeNs:      int64(now),
		Kind:        "attrib",
		Stream:      string(rec.Stream),
		Seq:         rec.Seq,
		Frag:        rec.Frag,
		Priority:    rec.Priority,
		CreatedNs:   rec.CreatedNs,
		EnqueuedNs:  rec.EnqueuedNs,
		DeliveredNs: rec.DeliveredNs,
		Hops:        hops,
	})
}

func (t *tracer) emitSlack(now time.Duration, f *Frame, lat, bound time.Duration) {
	if t == nil {
		return
	}
	t.sink.Emit(SlackEvent{
		TimeNs:  int64(now),
		Kind:    "slack",
		Stream:  string(f.Stream),
		Seq:     f.Seq,
		LatNs:   int64(lat),
		BoundNs: int64(bound),
		SlackNs: int64(bound - lat),
	})
}
