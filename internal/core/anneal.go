package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// annealSeed fixes the annealer's random source so its schedule is
// byte-identical across runs (the determinism the cascade and the
// experiment pipeline rely on).
const annealSeed = 0x5eed_e75

// solveAnneal runs simulated annealing over the rigid phase-shift space:
// random conflicted streams propose random (or conflict-aligned) phase
// deltas, accepted when they reduce conflicts or with Boltzmann
// probability when uphill. The temperature starts at the initial conflict
// count and decays geometrically; the best assignment seen is restored at
// the end, so a late uphill wander cannot lose an earlier solution.
func solveAnneal(ctx context.Context, inst *instance) (*Result, error) {
	sp := inst.opts.Phases.Begin("anneal")
	defer sp.End()
	h, err := buildHeurState(inst)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(annealSeed))
	iters := 2000 + 100*len(h.chains)
	temp := float64(h.total + 1)
	for it := 0; h.total > 0 && it < iters; it++ {
		// Every iteration: one on a dense instance costs milliseconds, and a
		// cascade stage must stop at its share of the deadline.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: anneal: %v", ErrBudget, err)
		}
		// Pick a conflicted chain uniformly (deterministic index order).
		pick := -1
		n := 0
		for i, c := range h.conf {
			if c > 0 {
				n++
				if rng.Intn(n) == 0 {
					pick = i
				}
			}
		}
		if pick < 0 {
			break
		}
		c := h.chains[pick]
		others := h.others(pick)
		// Propose: half the time an alignment candidate, half a uniform
		// boundary-valid delta.
		var d int64
		ok := false
		if cands := h.candidates(pick, others); len(cands) > 0 && rng.Intn(2) == 0 {
			d, ok = cands[rng.Intn(len(cands))], true
		} else {
			for try := 0; try < 8 && !ok; try++ {
				d = rng.Int63n(c.deltaMax + 1)
				ok = c.validDelta(d)
			}
		}
		if !ok || d == c.delta {
			temp *= 0.998
			continue
		}
		diff := h.evalDelta(pick, d, others) - h.conf[pick]
		if diff <= 0 || rng.Float64() < math.Exp(-float64(diff)/temp) {
			h.setDelta(pick, d, others)
		}
		temp *= 0.998
		if temp < 0.5 {
			temp = 0.5
		}
	}
	if h.total > 0 {
		return nil, fmt.Errorf("%w: anneal: %d conflicts remain after search", ErrBudget, h.total)
	}
	return h.extract(BackendAnneal), nil
}
