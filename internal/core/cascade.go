package core

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// DefaultCascade is the order BackendCascade walks when Options.Cascade is
// empty: the cheap placers first (they close almost every instance, and
// then nothing behind them runs) and the exact incremental SMT solver last
// as the completeness anchor.
func DefaultCascade() []Backend {
	return []Backend{BackendPlacer, BackendGreedy, BackendSMTIncremental}
}

// stageHook, when set, rewrites the instance the cascade's stages solve.
// It is nil outside tests, which set it to hand every stage an instance
// whose plans the verifier must reject.
var stageHook func(*instance)

// solveCascade walks the priority list one backend at a time and returns
// the first plan that passes the independent verifier, so a heuristic bug
// can never ship an invalid schedule — a rejected plan just counts as that
// backend failing. The winner, and so the emitted schedule, depends on the
// order alone.
func solveCascade(ctx context.Context, inst *instance) (*Result, error) {
	order := inst.opts.Cascade
	if len(order) == 0 {
		order = DefaultCascade()
	}
	for _, b := range order {
		if b == BackendAuto || b == BackendCascade {
			return nil, fmt.Errorf("%w: backend %v cannot run inside a cascade", ErrInvalidProblem, b)
		}
	}
	inst.opts.Obs.Counter("etsn_backend_cascades_total").Inc()
	if stageHook != nil {
		stageHook(inst)
	}
	res, errs := runStages(ctx, inst, order, true)
	if res != nil {
		inst.opts.Obs.Counter(`etsn_backend_wins_total{backend="` + res.BackendUsed.String() + `"}`).Inc()
		return res, nil
	}
	// Every backend failed. An exact backend's infeasibility verdict is a
	// proof and wins over heuristic give-ups; otherwise report the
	// highest-priority failure (budget/cancellation flavored). A placer's
	// PlaceFailure rides along in the chain either way so rerouting
	// callers (ScheduleWithRouting) can still identify the stuck stream.
	for i, err := range errs {
		if order[i].Capabilities().Exact && errors.Is(err, ErrInfeasible) {
			var pf *PlaceFailure
			for _, o := range errs {
				if errors.As(o, &pf) {
					return nil, fmt.Errorf("%w (placer: %w)", err, o)
				}
			}
			return nil, err
		}
	}
	if ctx.Err() != nil && !errors.Is(errs[0], ErrInfeasible) {
		return nil, fmt.Errorf("%w: cascade: %v (first backend: %v)", ErrBudget, ctx.Err(), errs[0])
	}
	return nil, fmt.Errorf("cascade: no backend produced a feasible plan: %w", errs[0])
}

// runStages runs the backends in order and returns the first plan; failing
// that, errs[i] is why order[i] produced none. Once ctx is done the
// remaining stages are not run. Under a deadline every stage but the last
// gets half the time left when it starts: a stage grinding to its budget
// must not starve the exact backend behind it of its infeasibility verdict.
func runStages(ctx context.Context, inst *instance, order []Backend, verify bool) (*Result, []error) {
	errs := make([]error, len(order))
	for i, b := range order {
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("%w: backend %v not run: %v", ErrBudget, b, err)
			continue
		}
		sctx, cancel := ctx, context.CancelFunc(func() {})
		if deadline, ok := ctx.Deadline(); ok && i < len(order)-1 {
			sctx, cancel = context.WithTimeout(ctx, time.Until(deadline)/2)
		}
		res, err := solveBackend(sctx, inst, b)
		cancel()
		if err == nil && verify {
			if vs := Verify(inst.problem.Network, res); len(vs) > 0 {
				inst.opts.Obs.Counter(`etsn_backend_verify_rejects_total{backend="` + b.String() + `"}`).Inc()
				err = fmt.Errorf("%w: cascade: backend %v plan rejected by verifier (%d violations, first: %s)",
					ErrBudget, b, len(vs), vs[0])
			} else {
				res.Verified = true
			}
		}
		if err == nil {
			return res, nil
		}
		errs[i] = err
	}
	return nil, errs
}
