package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"time"

	"etsn/internal/core"
	"etsn/internal/model"
	"etsn/internal/traffic"
)

// The scaling corpus: a family of cellular topologies whose traffic is
// cell-local, so streams, links and slots all grow in proportion to the
// cell count. Each grid point is solved through a two-backend cascade
// (placer, then greedy) and records the solve wall and the verifier's
// verdict on the plan. The cascade is fixed to the two placers on purpose:
// both are link-local and run to completion in time linear in the corpus,
// which is the claim the sweep's wall gate checks.
const (
	// corpusLeaves is the device count per cell.
	corpusLeaves = 6
	// CorpusStreamsPerCell is the TCT stream count generated inside each
	// cell; cells x this is the instance's stream count.
	CorpusStreamsPerCell = 50
	// corpusNProb keeps the per-cell ECT expansion small so stream counts
	// are dominated by TCT, not possibility streams.
	corpusNProb = 8
	// corpusLoad is the per-cell bottleneck load. Kept moderate so the
	// placer closes every cell and the cascade winner is deterministic.
	corpusLoad = 0.3
)

// corpusGrid is the cells-per-family sweep; the largest point carries
// cells x CorpusStreamsPerCell = 2200 TCT streams, above the 2k corpus
// target.
var corpusGrid = []int{4, 11, 22, 44}

// CorpusFamilies lists the swept topology families: "tree" hangs every
// cell switch off a core switch; "mesh" closes the cell switches into a
// ring with no core.
var CorpusFamilies = []string{"tree", "mesh"}

func corpusSwitch(c int) model.NodeID {
	return model.NodeID(fmt.Sprintf("EDGE%d", c))
}

func corpusDevice(c, d int) model.NodeID {
	return model.NodeID(fmt.Sprintf("C%d-D%d", c, d))
}

// corpusNetwork assembles the full topology of one grid point: `cells`
// cell switches with corpusLeaves devices each, interconnected per family.
func corpusNetwork(family string, cells int) (*model.Network, error) {
	n := model.NewNetwork()
	cfg := model.LinkConfig{Bandwidth: LinkRate, PropDelay: 100 * time.Nanosecond}
	for c := 0; c < cells; c++ {
		if err := n.AddSwitch(corpusSwitch(c)); err != nil {
			return nil, err
		}
	}
	switch family {
	case "tree":
		if err := n.AddSwitch("CORE"); err != nil {
			return nil, err
		}
		for c := 0; c < cells; c++ {
			if err := n.AddLink("CORE", corpusSwitch(c), cfg); err != nil {
				return nil, err
			}
		}
	case "mesh":
		// A ring of cell switches; with fewer than three cells the ring
		// degenerates to a line so no link is added twice.
		for c := 0; c+1 < cells; c++ {
			if err := n.AddLink(corpusSwitch(c), corpusSwitch(c+1), cfg); err != nil {
				return nil, err
			}
		}
		if cells >= 3 {
			if err := n.AddLink(corpusSwitch(cells-1), corpusSwitch(0), cfg); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("corpus: unknown family %q", family)
	}
	for c := 0; c < cells; c++ {
		for d := 0; d < corpusLeaves; d++ {
			dev := corpusDevice(c, d)
			if err := n.AddDevice(dev); err != nil {
				return nil, err
			}
			if err := n.AddLink(dev, corpusSwitch(c), cfg); err != nil {
				return nil, err
			}
		}
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// corpusCellWorkload generates one cell's streams on a standalone star
// subnetwork that reuses the corpus node names, so every generated path is
// a valid path of the full topology while endpoints stay inside the cell.
// Stream IDs are prefixed with the cell so they stay unique corpus-wide.
func corpusCellWorkload(c int, seed int64) ([]*model.Stream, *model.ECT, error) {
	sub := model.NewNetwork()
	cfg := model.LinkConfig{Bandwidth: LinkRate, PropDelay: 100 * time.Nanosecond}
	if err := sub.AddSwitch(corpusSwitch(c)); err != nil {
		return nil, nil, err
	}
	for d := 0; d < corpusLeaves; d++ {
		dev := corpusDevice(c, d)
		if err := sub.AddDevice(dev); err != nil {
			return nil, nil, err
		}
		if err := sub.AddLink(dev, corpusSwitch(c), cfg); err != nil {
			return nil, nil, err
		}
	}
	tct, err := traffic.Generate(traffic.Config{
		Network:       sub,
		NumStreams:    CorpusStreamsPerCell,
		Periods:       SimPeriods,
		TargetLoad:    corpusLoad,
		ShareFraction: 1,
		E2EFactor:     2,
		Seed:          seed + int64(c),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cell %d workload: %w", c, err)
	}
	for _, s := range tct {
		s.ID = model.StreamID(fmt.Sprintf("c%02d-%s", c, s.ID))
	}
	path, err := sub.ShortestPath(corpusDevice(c, 0), corpusDevice(c, corpusLeaves-1))
	if err != nil {
		return nil, nil, err
	}
	ect := &model.ECT{
		ID:            model.StreamID(fmt.Sprintf("c%02d-ect", c)),
		Path:          path,
		E2E:           SimInterevent,
		LengthBytes:   model.MTUBytes,
		MinInterevent: SimInterevent,
	}
	return tct, ect, nil
}

// corpusProblem assembles the complete scheduling instance of one grid
// point. Every call builds a fresh problem (fresh network, freshly
// generated streams); generation is seed-deterministic, so two calls
// return equal instances.
func corpusProblem(family string, cells int, seed int64) (*core.Problem, error) {
	n, err := corpusNetwork(family, cells)
	if err != nil {
		return nil, err
	}
	p := &core.Problem{Network: n}
	for c := 0; c < cells; c++ {
		tct, ect, err := corpusCellWorkload(c, seed)
		if err != nil {
			return nil, err
		}
		p.TCT = append(p.TCT, tct...)
		p.ECT = append(p.ECT, ect)
	}
	p.Opts = core.Options{
		NProb:   corpusNProb,
		Backend: core.BackendCascade,
		Cascade: []core.Backend{core.BackendPlacer, core.BackendGreedy},
	}
	return p, nil
}

// PlanFingerprint hashes a schedule into a canonical 64-bit fingerprint:
// the hyperperiod, every expanded stream, and every link's slots in a
// sorted order that does not depend on how the schedule was assembled.
// Two results with equal fingerprints carry byte-identical plans.
func PlanFingerprint(res *core.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "hyper=%d\n", res.Schedule.Hyperperiod)
	lines := make([]string, 0, len(res.Expanded))
	for _, s := range res.Expanded {
		lines = append(lines, fmt.Sprintf("%s|%v|%d|%d|%d|%d|%v\n",
			s.ID, s.Type, s.Period, s.E2E, s.LengthBytes, s.Priority, s.Path))
	}
	sort.Strings(lines)
	for _, l := range lines {
		io.WriteString(h, l)
	}
	for _, lid := range res.Schedule.Links() {
		fmt.Fprintf(h, "link %s->%s\n", lid.From, lid.To)
		slots := res.Schedule.SlotsOn(lid) // owned copy, safe to sort
		sort.Slice(slots, func(i, j int) bool {
			a, b := slots[i], slots[j]
			if a.Offset != b.Offset {
				return a.Offset < b.Offset
			}
			if a.Stream != b.Stream {
				return a.Stream < b.Stream
			}
			return a.Index < b.Index
		})
		for _, fs := range slots {
			fmt.Fprintf(h, "%+v\n", fs)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// corpusSolveReps is how many times corpusSolve times each solve. The
// sweep's gates compare walls of a few tens of milliseconds; a single cold
// solve of a just-built instance spread over 2.5x between runs, where
// back-to-back solves of one instance settle within ~20 %. The median is
// reported because the walls have a fat fast tail as well as a slow one.
const corpusSolveReps = 9

// corpusSolve schedules one freshly built instance of the grid point
// corpusSolveReps times back to back and returns the problem, the result,
// and the median solve wall.
func corpusSolve(family string, cells int, seed int64) (*core.Problem, *core.Result, time.Duration, error) {
	p, err := corpusProblem(family, cells, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	var res *core.Result
	walls := make([]time.Duration, corpusSolveReps)
	for rep := range walls {
		start := time.Now()
		res, err = core.Schedule(p)
		walls[rep] = time.Since(start)
		if err != nil {
			return nil, nil, walls[rep], err
		}
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	return p, res, walls[corpusSolveReps/2], nil
}

// ScaleSweep runs the corpus sweep and returns the BenchScale section for
// the scale artifact. The walls are solver walls (no simulation): the point
// of the sweep is the scheduling-time claim, gated by
// BenchArtifact.Validate via -check-bench.
func ScaleSweep(opts RunOptions) (*BenchScale, error) {
	opts = opts.withDefaults()
	out := &BenchScale{
		Cpus:           runtime.NumCPU(),
		StreamsPerCell: CorpusStreamsPerCell,
	}
	for _, family := range CorpusFamilies {
		for _, cells := range corpusGrid {
			p, res, wall, err := corpusSolve(family, cells, opts.Seed)
			if err != nil {
				return nil, fmt.Errorf("corpus %s/%d: %w", family, cells, err)
			}
			out.Points = append(out.Points, BenchScalePoint{
				Family:   family,
				Cells:    cells,
				Streams:  len(p.TCT),
				WallUs:   wall.Microseconds(),
				Verified: len(core.Verify(p.Network, res)) == 0,
			})
		}
	}
	return out, nil
}

// WriteTable renders the sweep report.
func (s *BenchScale) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "Extension — scaling corpus: solve wall against corpus size")
	fmt.Fprintf(w, "  %d streams per cell, placer+greedy cascade, %d CPU(s)\n", s.StreamsPerCell, s.Cpus)
	fmt.Fprintf(w, "  %-6s %6s %8s %12s %9s\n", "family", "cells", "streams", "wall", "verified")
	for _, pt := range s.Points {
		fmt.Fprintf(w, "  %-6s %6d %8d %12s %9v\n",
			pt.Family, pt.Cells, pt.Streams, time.Duration(pt.WallUs)*time.Microsecond, pt.Verified)
	}
}
