// Package qcc implements the configuration plane of IEEE 802.1Qcc at the
// level E-TSN plugs into (paper Fig. 5): stream requirements collected by a
// Centralized User Configuration (CUC) are handed to a Centralized Network
// Configuration (CNC), which knows the topology, runs the scheduler, and
// distributes per-port Gate Control Lists to the switches.
//
// Configurations are JSON documents (standing in for the standard's
// YANG/NETCONF encoding) so the cmd tools can drive the whole pipeline from
// files.
package qcc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"etsn/internal/core"
	"etsn/internal/gcl"
	"etsn/internal/model"
	"etsn/internal/obs"
)

// Sentinel errors. ErrBadStream and ErrBadDeployment wrap ErrBadConfig, so
// errors.Is(err, ErrBadConfig) keeps matching everything this package
// rejects while callers can still tell the three apart.
var (
	// ErrBadConfig marks an unusable configuration document.
	ErrBadConfig = errors.New("invalid qcc configuration")
	// ErrBadStream marks a semantically invalid stream requirement (zero or
	// negative period, missing endpoints, duplicate id, ...).
	ErrBadStream = fmt.Errorf("%w: invalid stream requirement", ErrBadConfig)
	// ErrBadDeployment marks an unusable deployment export (unknown link
	// ids, malformed gate programs, overlapping slots).
	ErrBadDeployment = fmt.Errorf("%w: invalid deployment", ErrBadConfig)
)

// Stream requirement types.
const (
	// TypeTimeTriggered marks TCT requirements.
	TypeTimeTriggered = "time-triggered"
	// TypeEventTriggered marks ECT requirements.
	TypeEventTriggered = "event-triggered"
)

// LinkConfig describes one full-duplex link.
type LinkConfig struct {
	// A and B are the endpoints.
	A string `json:"a"`
	B string `json:"b"`
	// BandwidthBps is the link speed in bits per second.
	BandwidthBps int64 `json:"bandwidth_bps"`
	// PropDelayNs is the one-way propagation delay in nanoseconds.
	PropDelayNs int64 `json:"prop_delay_ns,omitempty"`
	// TimeUnitNs is the scheduling granularity in nanoseconds; zero means
	// the model default (1 us).
	TimeUnitNs int64 `json:"time_unit_ns,omitempty"`
}

// NetworkConfig describes the topology.
type NetworkConfig struct {
	// Devices and Switches list the node names.
	Devices  []string     `json:"devices"`
	Switches []string     `json:"switches"`
	Links    []LinkConfig `json:"links"`
}

// StreamRequirement is one stream's user configuration (Qcc 46.2 talker and
// listener groups, flattened).
type StreamRequirement struct {
	// ID names the stream.
	ID string `json:"id"`
	// Talker and Listener are the endpoint devices.
	Talker   string `json:"talker"`
	Listener string `json:"listener"`
	// Type is time-triggered or event-triggered.
	Type string `json:"type"`
	// PeriodUs is the period (TCT) or minimum interevent time (ECT) in
	// microseconds.
	PeriodUs int64 `json:"period_us"`
	// MaxLatencyUs is the end-to-end deadline in microseconds.
	MaxLatencyUs int64 `json:"max_latency_us"`
	// PayloadBytes is the message size.
	PayloadBytes int `json:"payload_bytes"`
	// Share marks a TCT stream that offers its slots to ECT.
	Share bool `json:"share,omitempty"`
}

// Validate applies the semantic checks a CUC must pass before the CNC will
// route a requirement: JSON that decodes is not necessarily a stream. i is
// the requirement's position, used to name streams that have no id yet.
func (r *StreamRequirement) Validate(i int) error { return r.validate(i) }

// validate applies the semantic checks a CUC must pass before the CNC will
// route a requirement: JSON that decodes is not necessarily a stream.
func (r *StreamRequirement) validate(i int) error {
	switch {
	case r.ID == "":
		return fmt.Errorf("%w: stream %d has no id", ErrBadStream, i)
	case r.Talker == "":
		return fmt.Errorf("%w: stream %q has no talker", ErrBadStream, r.ID)
	case r.Listener == "":
		return fmt.Errorf("%w: stream %q has no listener", ErrBadStream, r.ID)
	case r.Talker == r.Listener:
		return fmt.Errorf("%w: stream %q talks to itself", ErrBadStream, r.ID)
	case r.Type != TypeTimeTriggered && r.Type != TypeEventTriggered:
		return fmt.Errorf("%w: stream %q: unknown type %q", ErrBadStream, r.ID, r.Type)
	case r.PeriodUs <= 0:
		return fmt.Errorf("%w: stream %q: period %d us (want > 0)", ErrBadStream, r.ID, r.PeriodUs)
	case r.MaxLatencyUs <= 0:
		return fmt.Errorf("%w: stream %q: max latency %d us (want > 0)", ErrBadStream, r.ID, r.MaxLatencyUs)
	case r.PayloadBytes <= 0:
		return fmt.Errorf("%w: stream %q: payload %d bytes (want > 0)", ErrBadStream, r.ID, r.PayloadBytes)
	case r.Share && r.Type != TypeTimeTriggered:
		return fmt.Errorf("%w: stream %q: only time-triggered streams can share slots", ErrBadStream, r.ID)
	}
	return nil
}

// SchedulerOptions carries the E-TSN tuning knobs. Documents on disk may
// still carry the removed "portfolio" and "decompose" options; Parse ignores
// unknown keys, so they plan as if the keys were absent.
type SchedulerOptions struct {
	// NProb is the possibilities-per-ECT count.
	NProb int `json:"n_prob,omitempty"`
	// Backend selects the scheduling strategy: "auto", "placer", "greedy",
	// "smt", "smt-incremental", or "cascade" (the backends one
	// at a time in priority order, first verified plan wins; "race", its
	// name in older documents, still selects it). Empty means auto; the
	// scheduling daemon defaults submitted jobs to "cascade".
	Backend string `json:"backend,omitempty"`
	// Spread staggers TCT placement over the period.
	Spread bool `json:"spread,omitempty"`
	// SharedReserves enables the per-link drain-stream reservation mode.
	SharedReserves bool `json:"shared_reserves,omitempty"`
	// Routing lets the CNC reroute streams over alternate paths when
	// their shortest path cannot be scheduled (joint routing lite).
	Routing bool `json:"routing,omitempty"`
	// MinimizeECT asks the SMT backends to optimize the worst
	// per-possibility ECT latency rather than stop at the first
	// satisfying schedule.
	MinimizeECT bool `json:"minimize_ect,omitempty"`
	// TimeoutMs bounds the scheduler's wall-clock budget in milliseconds
	// (core.Options.Timeout); zero means unlimited. The scheduling daemon
	// overrides it with the per-job deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// Config is a complete configuration document.
type Config struct {
	Network NetworkConfig       `json:"network"`
	Streams []StreamRequirement `json:"streams"`
	Options SchedulerOptions    `json:"options,omitempty"`
	// Obs and Phases are runtime-only instrumentation hooks set by the
	// CLIs; they are not part of the configuration document.
	Obs    *obs.Registry `json:"-"`
	Phases *obs.Tracer   `json:"-"`
}

// Parse decodes a configuration document.
func Parse(data []byte) (*Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return &c, nil
}

// Load decodes a configuration document from a reader.
func Load(r io.Reader) (*Config, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return Parse(data)
}

// Save encodes the configuration as indented JSON.
func (c *Config) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// BuildNetwork materializes the topology.
func (c *Config) BuildNetwork() (*model.Network, error) {
	n := model.NewNetwork()
	for _, d := range c.Network.Devices {
		if err := n.AddDevice(model.NodeID(d)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	for _, sw := range c.Network.Switches {
		if err := n.AddSwitch(model.NodeID(sw)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	for _, l := range c.Network.Links {
		err := n.AddLink(model.NodeID(l.A), model.NodeID(l.B), model.LinkConfig{
			Bandwidth: l.BandwidthBps,
			PropDelay: time.Duration(l.PropDelayNs),
			TimeUnit:  time.Duration(l.TimeUnitNs),
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return n, nil
}

// BuildProblem routes every stream requirement over the topology and
// assembles the scheduling problem.
func (c *Config) BuildProblem() (*core.Problem, error) {
	network, err := c.BuildNetwork()
	if err != nil {
		return nil, err
	}
	opts, err := c.coreOptions()
	if err != nil {
		return nil, err
	}
	p := &core.Problem{Network: network, Opts: opts}
	p.TCT, p.ECT, err = BuildStreams(network, c.Streams)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// BuildStreams validates and routes a batch of stream requirements over an
// existing topology (shortest paths). It is the requirement-to-model step
// of BuildProblem factored out so incremental admission — adding streams to
// an already-deployed network — can reuse it.
func BuildStreams(network *model.Network, reqs []StreamRequirement) ([]*model.Stream, []*model.ECT, error) {
	var tct []*model.Stream
	var ect []*model.ECT
	seen := make(map[string]bool, len(reqs))
	for i := range reqs {
		req := &reqs[i]
		if err := req.validate(i); err != nil {
			return nil, nil, err
		}
		if seen[req.ID] {
			return nil, nil, fmt.Errorf("%w: duplicate stream id %q", ErrBadStream, req.ID)
		}
		seen[req.ID] = true
		path, err := network.ShortestPath(model.NodeID(req.Talker), model.NodeID(req.Listener))
		if err != nil {
			return nil, nil, fmt.Errorf("%w: stream %q: %v", ErrBadStream, req.ID, err)
		}
		period := time.Duration(req.PeriodUs) * time.Microsecond
		e2e := time.Duration(req.MaxLatencyUs) * time.Microsecond
		switch req.Type {
		case TypeTimeTriggered:
			tct = append(tct, &model.Stream{
				ID:          model.StreamID(req.ID),
				Path:        path,
				E2E:         e2e,
				LengthBytes: req.PayloadBytes,
				Period:      period,
				Type:        model.StreamDet,
				Share:       req.Share,
			})
		case TypeEventTriggered:
			ect = append(ect, &model.ECT{
				ID:            model.StreamID(req.ID),
				Path:          path,
				E2E:           e2e,
				LengthBytes:   req.PayloadBytes,
				MinInterevent: period,
			})
		default:
			return nil, nil, fmt.Errorf("%w: stream %q: unknown type %q", ErrBadConfig, req.ID, req.Type)
		}
	}
	return tct, ect, nil
}

func (c *Config) coreOptions() (core.Options, error) {
	opts := core.Options{
		NProb:          c.Options.NProb,
		SpreadFrames:   c.Options.Spread,
		SharedReserves: c.Options.SharedReserves,
		MinimizeECT:    c.Options.MinimizeECT,
		Timeout:        time.Duration(c.Options.TimeoutMs) * time.Millisecond,
		Obs:            c.Obs,
		Phases:         c.Phases,
	}
	b, err := core.ParseBackend(c.Options.Backend)
	if err != nil {
		return core.Options{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	opts.Backend = b
	return opts, nil
}

// Deployment is the CNC output: the verified schedule and the per-port gate
// programs ready for distribution.
type Deployment struct {
	// Network is the materialized topology.
	Network *model.Network
	// Problem is the assembled scheduling problem.
	Problem *core.Problem
	// Result is the scheduling result.
	Result *core.Result
	// GCLs maps each directed link to its port's gate program.
	GCLs map[model.LinkID]*gcl.PortGCL
}

// Compute runs the full CNC pipeline: build the problem, schedule with
// E-TSN, verify independently (the cascade's own check counts), and compile
// GCLs with prioritized slot sharing.
func Compute(cfg *Config) (*Deployment, error) {
	p, err := cfg.BuildProblem()
	if err != nil {
		return nil, err
	}
	var res *core.Result
	if cfg.Options.Routing {
		var routed *core.Problem
		res, routed, err = core.ScheduleWithRouting(p, 3)
		if err == nil {
			p = routed
		}
	} else {
		res, err = core.Schedule(p)
	}
	if err != nil {
		return nil, fmt.Errorf("cnc scheduling: %w", err)
	}
	// A cascade plan passed this check before the cascade returned it.
	if !res.Verified {
		if vs := core.Verify(p.Network, res); len(vs) != 0 {
			return nil, fmt.Errorf("cnc verification: %s", vs[0])
		}
	}
	gcls, err := gcl.Synthesize(res.Schedule, gcl.Config{OpenECTOnShared: true})
	if err != nil {
		return nil, fmt.Errorf("cnc gcl synthesis: %w", err)
	}
	return &Deployment{Network: p.Network, Problem: p, Result: res, GCLs: gcls}, nil
}
