package smt

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// jobShop builds a small disjunctive scheduling instance: n tasks of the
// given length on one shared resource, each within [0, horizon]. SAT iff
// n*length <= horizon+length (tasks can be laid end to end).
func jobShop(n int, length, horizon int64) (*Solver, []Var) {
	s := NewSolver()
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = s.NewVar("t")
		s.AssertRange(vars[i], 0, horizon)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// t_i + length <= t_j  OR  t_j + length <= t_i
			s.AddClause(LE(vars[i], vars[j], -length), LE(vars[j], vars[i], -length))
		}
	}
	return s, vars
}

func checkJobShopModel(t *testing.T, m *Model, vars []Var, length, horizon int64) {
	t.Helper()
	for i, v := range vars {
		val := m.Value(v)
		if val < 0 || val > horizon {
			t.Fatalf("t%d = %d, want in [0,%d]", i, val, horizon)
		}
		for j := i + 1; j < len(vars); j++ {
			d := val - m.Value(vars[j])
			if d > -length && d < length {
				t.Fatalf("t%d=%d and t%d=%d overlap (length %d)", i, val, j, m.Value(vars[j]), length)
			}
		}
	}
}

func TestSolveContextSat(t *testing.T) {
	s, vars := jobShop(4, 5, 30)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := s.SolveContext(ctx)
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	checkJobShopModel(t, m, vars, 5, 30)
	if s.Stop != nil {
		t.Fatal("SolveContext left its stop flag installed")
	}
}

func TestSolveContextCancellation(t *testing.T) {
	// A hard over-constrained instance with no decision budget: the only
	// way out is the context.
	s, _ := jobShop(14, 10, 100)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.SolveContext(ctx)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		// Either the context won the race or the search finished first;
		// both are valid outcomes, but a canceled run must say so.
		if err != nil && !errors.Is(err, ErrCanceled) && !errors.Is(err, ErrUnsat) {
			t.Fatalf("SolveContext = %v, want ErrCanceled or a definitive answer", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SolveContext did not return after cancellation")
	}
}

func TestSolveStopFlag(t *testing.T) {
	s, _ := jobShop(14, 10, 100)
	var stop atomic.Bool
	stop.Store(true)
	s.Stop = &stop
	if _, err := s.Solve(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Solve with stop set = %v, want ErrCanceled", err)
	}
}

func TestPopRetractsInternedAtoms(t *testing.T) {
	s := NewSolver()
	x := s.NewVar("x")
	y := s.NewVar("y")
	s.AssertRange(x, 0, 100)
	s.AssertRange(y, 0, 100)
	s.AssertLE(x, y, -5) // x <= y - 5
	atomsBefore := s.NumAtoms()
	clausesBefore := s.NumClauses()

	// Push/assert/Solve/Pop with fresh atoms, several rounds: the solver
	// must return to its pre-Push size each time (this is the Minimize
	// probe pattern, which used to leak one atom per probe).
	for round := 0; round < 5; round++ {
		s.Push()
		s.AddClause(LEConst(y, int64(10+round))) // new atom each round
		m, err := s.Solve()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if v := m.Value(y); v > int64(10+round) {
			t.Fatalf("round %d: y = %d, want <= %d", round, v, 10+round)
		}
		s.Pop()
		if got := s.NumAtoms(); got != atomsBefore {
			t.Fatalf("round %d: NumAtoms = %d after Pop, want %d", round, got, atomsBefore)
		}
		if got := s.NumClauses(); got != clausesBefore {
			t.Fatalf("round %d: NumClauses = %d after Pop, want %d", round, got, clausesBefore)
		}
	}

	// Re-asserting after Pop must reach the same model as a fresh solver.
	s.AddClause(LEConst(y, 10))
	m1, err := s.Solve()
	if err != nil {
		t.Fatalf("re-assert Solve: %v", err)
	}
	fresh := NewSolver()
	fx := fresh.NewVar("x")
	fy := fresh.NewVar("y")
	fresh.AssertRange(fx, 0, 100)
	fresh.AssertRange(fy, 0, 100)
	fresh.AssertLE(fx, fy, -5)
	fresh.AddClause(LEConst(fy, 10))
	m2, err := fresh.Solve()
	if err != nil {
		t.Fatalf("fresh Solve: %v", err)
	}
	if m1.Value(x) != m2.Value(fx) || m1.Value(y) != m2.Value(fy) {
		t.Fatalf("models differ after Pop/re-assert: (%d,%d) vs fresh (%d,%d)",
			m1.Value(x), m1.Value(y), m2.Value(fx), m2.Value(fy))
	}
}

func TestPopNoAtomLeakAcrossMinimize(t *testing.T) {
	s := NewSolver()
	v := s.NewVar("v")
	s.AssertRange(v, 0, 1000)
	base := s.NumAtoms()
	// Minimize runs the Push/probe/Pop loop internally. Each probe retains
	// its bound atom on purpose (lemmas keep the bound as an assumption
	// literal, so the atom must outlive the Pop), but growth is bounded by
	// the number of binary-search probes — not by clause or watch state.
	m, err := s.Minimize(v, 0, 1000)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if m.Value(v) != 0 {
		t.Fatalf("Minimize value = %d, want 0", m.Value(v))
	}
	maxProbes := 12 // ceil(log2(1001)) + slack
	if got := s.NumAtoms(); got > base+maxProbes {
		t.Fatalf("NumAtoms = %d after Minimize, want <= %d (bounded probe-atom retention)", got, base+maxProbes)
	}
	// Re-running the same Minimize must not grow the atom table further:
	// probe bounds dedupe through the intern table.
	atoms := s.NumAtoms()
	if _, err := s.Minimize(v, 0, 1000); err != nil {
		t.Fatalf("second Minimize: %v", err)
	}
	if got := s.NumAtoms(); got != atoms {
		t.Fatalf("NumAtoms grew across repeated Minimize: %d -> %d", atoms, got)
	}
	// The probes must not leave watch entries for retracted clauses behind.
	for id, w := range s.watch {
		for _, ci := range w {
			if ci >= len(s.clauses) {
				t.Fatalf("watch[%d] references retracted clause %d (have %d clauses)", id, ci, len(s.clauses))
			}
		}
	}
	if _, err := s.Solve(); err != nil {
		t.Fatalf("Solve after Minimize probes: %v", err)
	}
}

func TestNewVarLazyName(t *testing.T) {
	s := NewSolver()
	calls := 0
	v := s.NewVarLazy(func() string { calls++; return "lazy-v" })
	u := s.NewVarLazy(nil)
	if calls != 0 {
		t.Fatalf("name builder ran at allocation time")
	}
	if got := s.Name(v); got != "lazy-v" {
		t.Fatalf("Name = %q, want lazy-v", got)
	}
	if got := s.Name(v); got != "lazy-v" || calls != 1 {
		t.Fatalf("Name memoization broken: %q, %d calls", got, calls)
	}
	if got := s.Name(u); got != "" {
		t.Fatalf("Name(unnamed) = %q, want empty", got)
	}
}
