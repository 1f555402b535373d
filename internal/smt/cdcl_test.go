package smt

import (
	"errors"
	"math/rand"
	"testing"
)

// randInstance is a reproducible random difference-logic instance that can
// be loaded into any number of fresh solvers (one per mode under test).
type randInstance struct {
	nVars   int
	hi      int64
	clauses [][]litSpec
}

type litSpec struct {
	x, y int
	c    int64
	neg  bool
}

func genInstance(rng *rand.Rand) randInstance {
	inst := randInstance{
		nVars: 2 + rng.Intn(6),
		hi:    int64(rng.Intn(20)) + 1,
	}
	nClauses := 1 + rng.Intn(24)
	for i := 0; i < nClauses; i++ {
		width := 1 + rng.Intn(3)
		var cl []litSpec
		for k := 0; k < width; k++ {
			cl = append(cl, litSpec{
				x:   rng.Intn(inst.nVars),
				y:   rng.Intn(inst.nVars),
				c:   int64(rng.Intn(31)) - 15,
				neg: rng.Intn(2) == 1,
			})
		}
		inst.clauses = append(inst.clauses, cl)
	}
	return inst
}

// load builds a fresh solver holding the instance in the given mode.
func (inst randInstance) load(mode Mode) (*Solver, []Var, [][]Lit) {
	s := NewSolver()
	s.Mode = mode
	s.MaxDecisions = 50000
	vars := make([]Var, inst.nVars)
	for i := range vars {
		vars[i] = s.NewVar("v")
		s.AssertRange(vars[i], 0, inst.hi)
	}
	var clauses [][]Lit
	for _, cl := range inst.clauses {
		var lits []Lit
		for _, ls := range cl {
			l := LE(vars[ls.x], vars[ls.y], ls.c)
			if ls.neg {
				l = Not(l)
			}
			lits = append(lits, l)
		}
		clauses = append(clauses, lits)
		s.AddClause(lits...)
	}
	return s, vars, clauses
}

func checkModel(t *testing.T, tag string, m *Model, clauses [][]Lit) {
	t.Helper()
	for i, cl := range clauses {
		ok := false
		for _, l := range cl {
			holds := m.Value(l.A.X)-m.Value(l.A.Y) <= l.A.C
			if holds != l.Neg {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s: model violates clause %d", tag, i)
		}
	}
}

// TestCDCLAgainstReferenceRandom runs both solver modes over a large batch
// of random instances and demands identical SAT/UNSAT answers, valid
// models, and — on SAT instances — identical Minimize optima. The last
// check exercises lemma retention across Push/Pop probes: an unsound
// retained lemma would make a later probe spuriously UNSAT and shift the
// optimum.
func TestCDCLAgainstReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 400; round++ {
		inst := genInstance(rng)
		cd, cdVars, cdClauses := inst.load(ModeCDCL)
		rf, rfVars, rfClauses := inst.load(ModeReference)
		cm, cerr := cd.Solve()
		rm, rerr := rf.Solve()
		if cerr != nil && !errors.Is(cerr, ErrUnsat) {
			continue // budget: no verdict
		}
		if rerr != nil && !errors.Is(rerr, ErrUnsat) {
			continue
		}
		if (cerr == nil) != (rerr == nil) {
			t.Fatalf("round %d: cdcl err=%v reference err=%v", round, cerr, rerr)
		}
		if cerr != nil {
			continue
		}
		checkModel(t, "cdcl", cm, cdClauses)
		checkModel(t, "reference", rm, rfClauses)
		cmin, cerr := cd.Minimize(cdVars[0], 0, inst.hi)
		rmin, rerr := rf.Minimize(rfVars[0], 0, inst.hi)
		if cerr != nil || rerr != nil {
			continue
		}
		if cv, rv := cmin.Value(cdVars[0]), rmin.Value(rfVars[0]); cv != rv {
			t.Fatalf("round %d: minimize disagrees: cdcl=%d reference=%d", round, cv, rv)
		}
	}
}

// TestTheoryPropagation: with x - y <= -5 asserted as a fact, the weaker
// atom x - y <= -3 appearing in a clause must be theory-propagated true
// at the root, satisfying the clause with no search.
func TestTheoryPropagation(t *testing.T) {
	s := NewSolver()
	s.TheoryProp = true
	x, y, z := s.NewVar("x"), s.NewVar("y"), s.NewVar("z")
	s.AssertRange(x, 0, 100)
	s.AssertRange(y, 0, 100)
	s.AssertRange(z, 0, 100)
	s.AssertLE(x, y, -5)
	s.AddClause(LE(x, y, -3), LE(z, y, -90))
	if _, err := s.Solve(); err != nil {
		t.Fatalf("solve: %v", err)
	}
	if s.Stats().TheoryProps == 0 {
		t.Fatal("no theory propagations recorded")
	}
}

// TestTheoryPropagationDisabled: the same instance solves with the pass
// off (the default), just without TheoryProps effort.
func TestTheoryPropagationDisabled(t *testing.T) {
	s := NewSolver()
	x, y := s.NewVar("x"), s.NewVar("y")
	s.AssertRange(x, 0, 100)
	s.AssertRange(y, 0, 100)
	s.AssertLE(x, y, -5)
	s.AddClause(LE(x, y, -3), LE(y, x, -90))
	if _, err := s.Solve(); err != nil {
		t.Fatalf("solve: %v", err)
	}
	if s.Stats().TheoryProps != 0 {
		t.Fatalf("theory propagations with pass disabled: %d", s.Stats().TheoryProps)
	}
}

// TestCDCLLearnsAndRestarts: a pigeonhole-flavored UNSAT instance must
// produce learned clauses and, having more conflicts than the first restart
// limit, must restart and still prove UNSAT.
func TestCDCLLearnsAndRestarts(t *testing.T) {
	s := NewSolver()
	const holes = 6
	var vars []Var
	for i := 0; i <= holes; i++ {
		v := s.NewVar("p")
		s.AssertRange(v, 0, holes-1) // holes slots for holes+1 pigeons
		vars = append(vars, v)
	}
	for i := range vars {
		for j := i + 1; j < len(vars); j++ {
			// All-different: v_i != v_j.
			s.AddClause(LE(vars[i], vars[j], -1), LE(vars[j], vars[i], -1))
		}
	}
	_, err := s.Solve()
	if !errors.Is(err, ErrUnsat) {
		t.Fatalf("want UNSAT, got %v", err)
	}
	st := s.Stats()
	if st.Learned == 0 {
		t.Fatal("no learned clauses on a conflict-heavy instance")
	}
	if st.Restarts == 0 {
		t.Fatal("no restarts on an instance with well over restartBase conflicts")
	}
	if st.MaxDecisionLevel == 0 {
		t.Fatal("MaxDecisionLevel not tracked")
	}
}

// TestLemmaRetentionAcrossPushPop: lemmas learned inside a Push scope that
// depend on probe clauses must not leak; the instance must stay SAT after
// the Pop, and theory lemmas that survive must not change the answer.
func TestLemmaRetentionAcrossPushPop(t *testing.T) {
	s := NewSolver()
	x, y := s.NewVar("x"), s.NewVar("y")
	s.AssertRange(x, 0, 10)
	s.AssertRange(y, 0, 10)
	s.AddClause(LE(x, y, -2), LE(y, x, -2)) // |x - y| >= 2
	if _, err := s.Solve(); err != nil {
		t.Fatalf("base solve: %v", err)
	}
	s.Push()
	s.AssertLE(x, y, -8) // x <= y - 8
	s.AssertGE(x, y, -7) // contradiction: x >= y - 7
	if _, err := s.Solve(); !errors.Is(err, ErrUnsat) {
		t.Fatalf("pushed scope should be UNSAT, got %v", err)
	}
	learnedInScope := s.NumLearnts()
	s.Pop()
	// Any lemma derived from the popped clauses must be gone; what remains
	// must keep the base instance satisfiable.
	if s.NumLearnts() > learnedInScope {
		t.Fatal("learnt count grew across Pop")
	}
	m, err := s.Solve()
	if err != nil {
		t.Fatalf("solve after pop: %v", err)
	}
	if d := m.Value(x) - m.Value(y); d > -2 && d < 2 {
		t.Fatalf("model violates |x-y| >= 2: x=%d y=%d", m.Value(x), m.Value(y))
	}
	// The popped scope can be re-asserted with the opposite polarity.
	s.Push()
	s.AssertLE(x, y, -8)
	if _, err := s.Solve(); err != nil {
		t.Fatalf("re-pushed scope should be SAT: %v", err)
	}
	s.Pop()
}

// TestPruneLearntsDropsAtomRefs: lemmas over atoms interned inside a Push
// scope are dropped on Pop even when theory-derived.
func TestPruneLearntsDropsAtomRefs(t *testing.T) {
	c := &cdclState{
		learnts: []learnt{
			{lits: []blit{mkblit(0, false), mkblit(1, true)}, theoryOnly: true, maxDep: -1},
			{lits: []blit{mkblit(0, false), mkblit(5, true)}, theoryOnly: true, maxDep: -1},
			{lits: []blit{mkblit(1, false)}, theoryOnly: false, maxDep: 3},
			{lits: []blit{mkblit(2, false)}, theoryOnly: false, maxDep: 9},
		},
	}
	c.pruneLearnts(5, 4)
	if len(c.learnts) != 2 {
		t.Fatalf("kept %d learnts, want 2", len(c.learnts))
	}
	if c.learnts[0].lits[1] != mkblit(1, true) || c.learnts[1].lits[0] != mkblit(1, false) {
		t.Fatal("wrong learnts survived pruning")
	}
}

// TestReferenceModeSolves: the chronological oracle still answers both
// ways when selected explicitly.
func TestReferenceModeSolves(t *testing.T) {
	s := NewSolver()
	s.Mode = ModeReference
	x, y := s.NewVar("x"), s.NewVar("y")
	s.AssertRange(x, 0, 5)
	s.AssertRange(y, 0, 5)
	s.AssertLE(x, y, -2)
	m, err := s.Solve()
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if m.Value(x)-m.Value(y) > -2 {
		t.Fatal("reference model violates x <= y - 2")
	}
	if s.Stats().Learned != 0 || s.Stats().Restarts != 0 {
		t.Fatal("reference mode should not learn or restart")
	}
	s.AssertGE(x, y, 0)
	if _, err := s.Solve(); !errors.Is(err, ErrUnsat) {
		t.Fatalf("want UNSAT, got %v", err)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}
