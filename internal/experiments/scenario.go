package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"etsn/internal/model"
	"etsn/internal/sched"
	"etsn/internal/sim"
	"etsn/internal/traffic"
)

// Default experiment parameters, matching Sec. VI.
const (
	// TestbedStreams and SimStreams are the TCT counts of the two setups.
	TestbedStreams = 10
	SimStreams     = 40
	// TestbedNProb is the possibilities-per-ECT on the testbed; with a
	// 16 ms interevent time it bounds the pick-up delay at 125 us.
	TestbedNProb = 128
	// SimNProb is the possibilities-per-ECT on the simulation topology
	// (156 us pick-up bound at 10 ms interevent).
	SimNProb = 64
	// MultiECTNProb is used when several ECT streams coexist (Fig. 16):
	// possibilities of different ECT streams may not overlap each other,
	// so the per-stream reservation density must come down.
	MultiECTNProb = 32
	// TestbedInterevent and SimInterevent are the ECT minimum interevent
	// times of the two setups.
	TestbedInterevent = 16 * time.Millisecond
	SimInterevent     = 10 * time.Millisecond
	// DefaultDuration is the simulated time per run.
	DefaultDuration = 4 * time.Second
	// DefaultSeed drives workload generation and event arrivals.
	DefaultSeed = 60802
)

// TestbedPeriods and SimPeriods are the period sets of the two profiles.
var (
	TestbedPeriods = []time.Duration{4 * time.Millisecond, 8 * time.Millisecond, 16 * time.Millisecond}
	SimPeriods     = []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
)

// BEFraction is the per-device best-effort background rate as a fraction of
// the link rate. The paper's AVB baseline runs "with a higher priority than
// background traffic", so background traffic is part of every scenario.
const BEFraction = 0.08

// Scenario is a fully assembled workload: topology, TCT streams, ECT
// streams, and best-effort background, ready to plan with any method.
type Scenario struct {
	// Network is the topology.
	Network *model.Network
	// TCT is the generated periodic workload.
	TCT []*model.Stream
	// ECT is the event-triggered workload.
	ECT []*model.ECT
	// BE is the best-effort background traffic.
	BE []sim.BETraffic
	// NProb is the E-TSN possibility count.
	NProb int
	// Load is the requested TCT bottleneck load.
	Load float64
}

// Problem converts the scenario to the planner's input.
func (s *Scenario) Problem() sched.Problem {
	return sched.Problem{Network: s.Network, TCT: s.TCT, ECT: s.ECT,
		NProb: s.NProb, Spread: true}
}

// NewTestbedScenario assembles the Sec. VI-B setup: the testbed topology,
// ten random TCT streams (periods {4,8,16} ms, payloads scaled to the load),
// and one ECT stream from D2 to D4 (one MTU, 16 ms interevent).
func NewTestbedScenario(load float64, seed int64) (*Scenario, error) {
	n, err := TestbedNetwork()
	if err != nil {
		return nil, err
	}
	tct, err := traffic.Generate(traffic.Config{
		Network:       n,
		NumStreams:    TestbedStreams,
		Periods:       TestbedPeriods,
		TargetLoad:    load,
		ShareFraction: 1,
		E2EFactor:     2,
		Seed:          seed,
	})
	if err != nil {
		return nil, fmt.Errorf("testbed workload: %w", err)
	}
	path, err := n.ShortestPath("D2", "D4")
	if err != nil {
		return nil, err
	}
	ect := &model.ECT{
		ID:            "ect",
		Path:          path,
		E2E:           TestbedInterevent,
		LengthBytes:   model.MTUBytes,
		MinInterevent: TestbedInterevent,
	}
	be, err := backgroundFlows(n, seed)
	if err != nil {
		return nil, err
	}
	return &Scenario{Network: n, TCT: tct, ECT: []*model.ECT{ect}, BE: be,
		NProb: TestbedNProb, Load: load}, nil
}

// NewSimulationScenario assembles the Sec. VI-C setup: the 4-switch /
// 12-device topology, forty TCT streams (periods {5,10,20} ms), and one ECT
// stream from D1 to D12 whose message spans msgMTUs Ethernet frames.
// shareFraction controls how many TCT streams offer their slots (Fig. 15
// uses 30 of 40).
func NewSimulationScenario(load float64, msgMTUs int, shareFraction float64, seed int64) (*Scenario, error) {
	if msgMTUs < 1 {
		msgMTUs = 1
	}
	n, err := SimulationNetwork()
	if err != nil {
		return nil, err
	}
	tct, err := traffic.Generate(traffic.Config{
		Network:       n,
		NumStreams:    SimStreams,
		Periods:       SimPeriods,
		TargetLoad:    load,
		ShareFraction: shareFraction,
		E2EFactor:     2,
		Seed:          seed,
	})
	if err != nil {
		return nil, fmt.Errorf("simulation workload: %w", err)
	}
	path, err := n.ShortestPath("D1", "D12")
	if err != nil {
		return nil, err
	}
	ect := &model.ECT{
		ID:            "ect",
		Path:          path,
		E2E:           SimInterevent,
		LengthBytes:   msgMTUs * model.MTUBytes,
		MinInterevent: SimInterevent,
	}
	be, err := backgroundFlows(n, seed)
	if err != nil {
		return nil, err
	}
	return &Scenario{Network: n, TCT: tct, ECT: []*model.ECT{ect}, BE: be,
		NProb: SimNProb, Load: load}, nil
}

// RingStreams is the TCT count of the fault-recovery scenario; RingNProb
// its possibilities-per-ECT (312 us pick-up bound at 10 ms interevent).
const (
	RingStreams = 16
	RingNProb   = 32
)

// NewRingScenario assembles the fault-recovery workload: the 4-switch ring,
// sixteen TCT streams at the given bottleneck load, and one ECT stream from
// D1 to D5 — a route crossing two ring links, either of which can fail with
// an alternate route remaining. Loads are kept moderate so the surviving
// half of the ring can absorb rerouted traffic.
func NewRingScenario(load float64, seed int64) (*Scenario, error) {
	n, err := RingNetwork()
	if err != nil {
		return nil, err
	}
	tct, err := traffic.Generate(traffic.Config{
		Network:       n,
		NumStreams:    RingStreams,
		Periods:       SimPeriods,
		TargetLoad:    load,
		ShareFraction: 0.75,
		E2EFactor:     2,
		Seed:          seed,
	})
	if err != nil {
		return nil, fmt.Errorf("ring workload: %w", err)
	}
	path, err := n.ShortestPath("D1", "D5")
	if err != nil {
		return nil, err
	}
	ect := &model.ECT{
		ID:            "ect",
		Path:          path,
		E2E:           SimInterevent,
		LengthBytes:   model.MTUBytes,
		MinInterevent: SimInterevent,
	}
	be, err := backgroundFlows(n, seed)
	if err != nil {
		return nil, err
	}
	return &Scenario{Network: n, TCT: tct, ECT: []*model.ECT{ect}, BE: be,
		NProb: RingNProb, Load: load}, nil
}

// backgroundFlows builds one best-effort flow per device towards a
// deterministic-random peer, each at BEFraction of the link rate.
func backgroundFlows(n *model.Network, seed int64) ([]sim.BETraffic, error) {
	rng := rand.New(rand.NewSource(seed + 7))
	var devices []model.NodeID
	for _, node := range n.Nodes() {
		if node.IsDevice() {
			devices = append(devices, node.ID)
		}
	}
	wireBits := float64(model.WireBytes(model.MTUBytes) * 8)
	gap := time.Duration(wireBits / (BEFraction * LinkRate) * float64(time.Second))
	out := make([]sim.BETraffic, 0, len(devices))
	for _, src := range devices {
		dst := devices[rng.Intn(len(devices))]
		for dst == src {
			dst = devices[rng.Intn(len(devices))]
		}
		path, err := n.ShortestPath(src, dst)
		if err != nil {
			return nil, err
		}
		out = append(out, sim.BETraffic{
			Path:         path,
			PayloadBytes: model.MTUBytes,
			MeanGap:      gap,
		})
	}
	return out, nil
}

// AddRandomECTs appends extra ECT streams with random device endpoints
// (Sec. VI-C3), deterministically from the seed.
func (s *Scenario) AddRandomECTs(count int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	var devices []model.NodeID
	for _, node := range s.Network.Nodes() {
		if node.IsDevice() {
			devices = append(devices, node.ID)
		}
	}
	for i := 0; i < count; i++ {
		src := devices[rng.Intn(len(devices))]
		dst := devices[rng.Intn(len(devices))]
		for dst == src {
			dst = devices[rng.Intn(len(devices))]
		}
		path, err := s.Network.ShortestPath(src, dst)
		if err != nil {
			return err
		}
		s.ECT = append(s.ECT, &model.ECT{
			ID:            model.StreamID(fmt.Sprintf("ect%d", i+2)),
			Path:          path,
			E2E:           SimInterevent,
			LengthBytes:   model.MTUBytes,
			MinInterevent: SimInterevent,
		})
	}
	return nil
}
