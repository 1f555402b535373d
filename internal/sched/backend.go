package sched

import (
	"context"

	"etsn/internal/core"
)

// Backend is the scheduler extension point: a named solving strategy that
// turns a core.Problem into a verified-ready core.Result under a context.
// The built-in implementations wrap the core backends (the first-fit and
// ALAP placers, the exact SMT solvers, and the cascade over them); external
// packages can implement the interface to slot new strategies into the same
// pipeline. Whatever a Solve returns is still re-checked by core.Verify
// before any GCL is synthesized from it — the interface carries no
// soundness obligations.
type Backend interface {
	// Name is the stable identifier used by -backend flags and configs.
	Name() string
	// Capabilities reports the strategy's guarantees.
	Capabilities() core.Capabilities
	// Solve schedules the problem, honoring ctx cancellation where the
	// capabilities advertise Anytime.
	Solve(ctx context.Context, p *core.Problem) (*core.Result, error)
}

// coreBackend adapts a core.Backend enum value to the interface.
type coreBackend struct{ b core.Backend }

func (c coreBackend) Name() string                    { return c.b.String() }
func (c coreBackend) Capabilities() core.Capabilities { return c.b.Capabilities() }

// Solve forces the wrapped backend onto a shallow copy of the problem so
// the caller's options are not mutated.
func (c coreBackend) Solve(ctx context.Context, p *core.Problem) (*core.Result, error) {
	cp := *p
	cp.Opts.Backend = c.b
	return core.ScheduleContext(ctx, &cp)
}

// Backends returns the built-in backends in cascade order, the cascade
// itself last.
func Backends() []Backend {
	out := make([]Backend, 0, 5)
	for _, b := range core.DefaultCascade() {
		out = append(out, coreBackend{b})
	}
	out = append(out, coreBackend{core.BackendSMT}, coreBackend{core.BackendCascade})
	return out
}

// BackendByName resolves a backend identifier (as ParseBackend accepts it,
// including "auto").
func BackendByName(name string) (Backend, error) {
	b, err := core.ParseBackend(name)
	if err != nil {
		return nil, err
	}
	return coreBackend{b}, nil
}
