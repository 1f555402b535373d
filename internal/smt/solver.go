package smt

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Sentinel errors returned by Solve.
var (
	// ErrUnsat means the asserted clauses are unsatisfiable.
	ErrUnsat = errors.New("unsatisfiable")
	// ErrBudget means the search exceeded MaxDecisions or Deadline.
	ErrBudget = errors.New("solver budget exhausted")
	// ErrCanceled means the search was stopped externally (the Stop flag,
	// which SolveContext sets when its context is done).
	ErrCanceled = errors.New("solve canceled")
)

// Mode selects the search algorithm.
type Mode int

const (
	// ModeCDCL is the default: conflict-driven clause learning over the
	// difference-logic theory — two-watched-literal propagation, 1UIP
	// conflict analysis with non-chronological backjumping, VSIDS
	// branching with phase saving, Luby restarts, and theory propagation
	// of implied atoms.
	ModeCDCL Mode = iota
	// ModeReference is the original chronological-backtracking DPLL,
	// kept as a differential-testing oracle: slower, but independently
	// implemented, so SAT/UNSAT disagreements expose bugs in either core.
	ModeReference
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeCDCL:
		return "cdcl"
	case ModeReference:
		return "reference"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Model is a satisfying assignment: an integer value per variable, with
// Zero mapped to 0.
type Model struct {
	vals []int64
}

// Value returns the model value of v.
func (m *Model) Value(v Var) int64 {
	if int(v) >= len(m.vals) {
		return 0
	}
	return m.vals[int(v)]
}

// Stats reports search effort counters for the most recent Solve call.
type Stats struct {
	// Decisions is the number of branching decisions made.
	Decisions int64
	// Propagations is the number of literals assigned by unit propagation.
	Propagations int64
	// Conflicts is the number of clause or theory conflicts hit.
	Conflicts int64
	// TheoryChecks is the number of difference-logic edge assertions
	// checked for negative cycles.
	TheoryChecks int64
	// Restarts is the number of in-search restarts (CDCL mode only; the
	// reference solver never restarts).
	Restarts int64
	// Learned is the number of conflict clauses learned (CDCL mode only).
	Learned int64
	// TheoryProps is the number of literals assigned by difference-logic
	// theory propagation (implied atoms, CDCL mode only).
	TheoryProps int64
	// MaxDecisionLevel is the deepest decision level the search reached.
	MaxDecisionLevel int64
	// Clauses is the number of clauses at solve time.
	Clauses int
	// Vars is the number of integer variables.
	Vars int
}

// addEffort folds another Stats' effort counters into s. Clauses and
// Vars are sizes, not effort, and take the other value;
// MaxDecisionLevel is a high-water mark.
func (s *Stats) addEffort(o Stats) {
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Conflicts += o.Conflicts
	s.TheoryChecks += o.TheoryChecks
	s.Restarts += o.Restarts
	s.Learned += o.Learned
	s.TheoryProps += o.TheoryProps
	if o.MaxDecisionLevel > s.MaxDecisionLevel {
		s.MaxDecisionLevel = o.MaxDecisionLevel
	}
	s.Clauses = o.Clauses
	s.Vars = o.Vars
}

// Solver accumulates clauses over difference-logic literals and decides
// their satisfiability. The zero value is not usable; call NewSolver.
type Solver struct {
	g         *graph
	names     []string
	lazyNames map[int]func() string // deferred name builders, keyed by var
	atomIDs   map[Atom]int
	atoms     []Atom
	val       []int8  // per atom: 0 unknown, +1 true, -1 false
	watch     [][]int // per atom: indices of clauses containing it
	clauses   []clause
	numTrue   []int32 // per clause (reference mode)
	numFalse  []int32 // per clause (reference mode)
	litArena  []Lit   // backing storage for clause lits (append-only)
	idArena   []int   // backing storage for clause ids (append-only)

	trail     []int // assigned atom ids, in order (reference mode)
	decisions []decisionFrame

	// Mode selects the search algorithm: ModeCDCL (default) or
	// ModeReference (the chronological oracle).
	Mode Mode
	// MaxDecisions bounds the number of branching decisions; zero means
	// unlimited.
	MaxDecisions int64
	// Deadline aborts the search when passed; zero means no deadline.
	Deadline time.Time
	// Stop, when non-nil, is polled during the search; once it reads true
	// the search aborts with ErrCanceled. SolveContext installs one for the
	// duration of a call.
	Stop *atomic.Bool
	// TheoryProp enables exhaustive difference-logic theory propagation
	// (implied-atom detection) in CDCL mode. The pass is sound but costs
	// two Dijkstra sweeps plus an all-atoms scan per asserted edge, which
	// only pays off when implied atoms prune enough search to cover it —
	// on the scheduler's mostly-easy instances it does not, so it is off
	// by default and enabled per-instance (ablations, hard Minimize runs).
	TheoryProp bool

	stats  Stats
	total  Stats // effort accumulated over completed Solve calls
	solves int64 // number of Solve calls started
	marks  []mark

	// budgetTick counts checkBudget calls so the Deadline poll runs on a
	// fixed call cadence. Keying the poll off the decision counter (as an
	// earlier version did) stalled whenever the counter parked on a
	// multiple of the poll interval through long conflict/flip sequences.
	budgetTick uint32

	propQueue []int // reference mode: clauses that may be unit or empty

	cdcl cdclState
}

// mark records a Push point: the clause count and the atom count, so Pop
// can retract interned atoms along with the clauses that introduced them.
type mark struct {
	clauses int
	atoms   int
}

type clause struct {
	lits []Lit
	ids  []int // atom id per literal
}

type decisionFrame struct {
	lit       Lit
	litID     int
	trailMark int
	edgeMark  int
	piMark    int
	flipped   bool
}

// NewSolver returns an empty solver with the Zero variable allocated.
func NewSolver() *Solver {
	s := &Solver{
		g:       newGraph(),
		atomIDs: make(map[Atom]int),
	}
	s.g.addVar() // Zero
	s.names = append(s.names, "ZERO")
	return s
}

// NewVar allocates a fresh integer variable.
func (s *Solver) NewVar(name string) Var {
	v := s.g.addVar()
	s.names = append(s.names, name)
	return v
}

// NewVarLazy allocates a fresh integer variable whose name is materialized
// only when Name is first asked for it. Constraint emission allocates tens
// of thousands of variables whose names are read only in debug paths, so
// deferring the fmt.Sprintf keeps it off the hot path.
func (s *Solver) NewVarLazy(name func() string) Var {
	v := s.g.addVar()
	s.names = append(s.names, "")
	if name != nil {
		if s.lazyNames == nil {
			s.lazyNames = make(map[int]func() string)
		}
		s.lazyNames[int(v)] = name
	}
	return v
}

// Name returns the name given to a variable at allocation, materializing
// lazily named variables on first use.
func (s *Solver) Name(v Var) string {
	if int(v) >= len(s.names) {
		return fmt.Sprintf("v%d", int(v))
	}
	if s.names[int(v)] == "" {
		if fn, ok := s.lazyNames[int(v)]; ok {
			s.names[int(v)] = fn()
			delete(s.lazyNames, int(v))
		}
	}
	return s.names[int(v)]
}

// NumVars returns the number of variables including Zero.
func (s *Solver) NumVars() int { return len(s.names) }

// NumClauses returns the number of asserted clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumAtoms returns the number of distinct interned atoms.
func (s *Solver) NumAtoms() int { return len(s.atoms) }

// NumLearnts returns the number of clauses currently in the learned DB.
func (s *Solver) NumLearnts() int { return len(s.cdcl.learnts) }

// Stats returns the effort counters of the most recent Solve call.
func (s *Solver) Stats() Stats { return s.stats }

// TotalStats returns the effort counters accumulated across every Solve
// call on this solver (incremental re-solves, Minimize probes), including
// the most recent one. Clauses and Vars reflect the current sizes.
func (s *Solver) TotalStats() Stats {
	t := s.total
	t.addEffort(s.stats)
	return t
}

// Solves returns the number of Solve calls made on this solver. In-search
// restarts are counted separately in Stats.Restarts.
func (s *Solver) Solves() int64 { return s.solves }

// AddClause asserts the disjunction of the given literals. An empty clause
// makes the problem trivially unsatisfiable.
//
// Clause storage comes from two append-only arenas so that millions of
// short clauses cost two amortized appends instead of two allocations
// each. The arenas are never rewound (Pop only drops the clause headers).
func (s *Solver) AddClause(lits ...Lit) {
	ci := len(s.clauses)
	la := len(s.litArena)
	s.litArena = append(s.litArena, lits...)
	c := clause{lits: s.litArena[la:len(s.litArena):len(s.litArena)]}
	ia := len(s.idArena)
	for _, l := range c.lits {
		s.idArena = append(s.idArena, s.internAtom(l.A))
	}
	c.ids = s.idArena[ia:len(s.idArena):len(s.idArena)]
	for _, id := range c.ids {
		s.watch[id] = append(s.watch[id], ci)
	}
	s.clauses = append(s.clauses, c)
}

// AssertLE asserts x - y <= c as a fact.
func (s *Solver) AssertLE(x, y Var, c int64) { s.AddClause(LE(x, y, c)) }

// AssertGE asserts x - y >= c as a fact.
func (s *Solver) AssertGE(x, y Var, c int64) { s.AddClause(GE(x, y, c)) }

// AssertRange asserts lo <= v <= hi.
func (s *Solver) AssertRange(v Var, lo, hi int64) {
	s.AddClause(GEConst(v, lo))
	s.AddClause(LEConst(v, hi))
}

// Push records the current clause and atom counts so a later Pop can
// retract clauses added since, together with any atoms those clauses
// interned. Variables are never retracted.
func (s *Solver) Push() {
	s.marks = append(s.marks, mark{clauses: len(s.clauses), atoms: len(s.atoms)})
}

// Pop retracts all clauses added since the matching Push, along with any
// atoms interned by them. Retracting the atoms matters for long-lived
// solvers: Minimize probes a fresh bound atom per Push/Pop round, and
// without retraction those atoms (and their watch lists and value slots)
// accumulated forever. Search state referencing a retracted atom is
// cleared; the next Solve restarts from scratch anyway.
//
// Learned clauses survive the Pop when they remain sound: theory lemmas
// (derived from difference-logic reasoning alone) are valid regardless of
// which clauses exist, and clause-derived lemmas are kept iff every
// problem clause in their derivation predates the Push. Lemmas that
// mention a retracted atom are always dropped.
func (s *Solver) Pop() {
	if len(s.marks) == 0 {
		return
	}
	m := s.marks[len(s.marks)-1]
	s.marks = s.marks[:len(s.marks)-1]
	for ci := len(s.clauses) - 1; ci >= m.clauses; ci-- {
		for _, id := range s.clauses[ci].ids {
			w := s.watch[id]
			s.watch[id] = w[:len(w)-1]
		}
	}
	s.clauses = s.clauses[:m.clauses]
	if m.atoms < len(s.atoms) {
		for _, a := range s.atoms[m.atoms:] {
			delete(s.atomIDs, a)
		}
		s.atoms = s.atoms[:m.atoms]
		s.val = s.val[:m.atoms]
		s.watch = s.watch[:m.atoms]
		// The trail and decision stack may reference retracted atom ids;
		// drop them rather than leave dangling indices.
		s.trail = s.trail[:0]
		s.decisions = s.decisions[:0]
		s.g.undoTo(0, 0)
	}
	s.cdcl.pruneLearnts(m.clauses, m.atoms)
}

func (s *Solver) internAtom(a Atom) int {
	if id, ok := s.atomIDs[a]; ok {
		return id
	}
	id := len(s.atoms)
	s.atomIDs[a] = id
	s.atoms = append(s.atoms, a)
	s.val = append(s.val, 0)
	s.watch = append(s.watch, nil)
	return id
}

// Solve searches for a model of all asserted clauses. It returns ErrUnsat
// if none exists and ErrBudget if MaxDecisions or Deadline was exceeded.
// Solve restarts the search each call; clauses — and, in CDCL mode, still-
// sound learned lemmas, variable activities, and saved phases — persist
// across calls, which is what makes Minimize's Push/probe/Pop rounds and
// the incremental backend's re-solves cheap.
func (s *Solver) Solve() (*Model, error) {
	if s.Mode == ModeReference {
		return s.solveReference()
	}
	return s.solveCDCL()
}

// SolveContext runs one Solve that is canceled when ctx is done; it is the
// entry the scheduler's backends call.
func (s *Solver) SolveContext(ctx context.Context) (*Model, error) {
	if ctx == nil || ctx.Done() == nil {
		return s.Solve()
	}
	prevStop := s.Stop
	stop := &atomic.Bool{}
	s.Stop = stop
	defer func() { s.Stop = prevStop }()
	defer context.AfterFunc(ctx, func() { stop.Store(true) })()
	m, err := s.Solve()
	if errors.Is(err, ErrCanceled) && ctx.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
	}
	return m, err
}

func (s *Solver) resetCommon() {
	s.trail = s.trail[:0]
	s.decisions = s.decisions[:0]
	s.g.undoTo(0, 0)
	for i := range s.val {
		s.val[i] = 0
	}
	s.total.addEffort(s.stats)
	s.solves++
	s.stats = Stats{Clauses: len(s.clauses), Vars: s.NumVars()}
	s.budgetTick = 0
}

// checkBudget polls the stop flag, decision budget, and deadline. The
// deadline poll runs every 256 calls by its own tick counter — not by the
// decision counter, which can sit parked on a multiple of the interval
// across long conflict/flip sequences and then either never poll or poll
// on every iteration.
func (s *Solver) checkBudget() error {
	if s.Stop != nil && s.Stop.Load() {
		return ErrCanceled
	}
	if s.MaxDecisions > 0 && s.stats.Decisions >= s.MaxDecisions {
		return fmt.Errorf("%w: %d decisions", ErrBudget, s.stats.Decisions)
	}
	if !s.Deadline.IsZero() {
		s.budgetTick++
		if s.budgetTick&255 == 0 && time.Now().After(s.Deadline) {
			return fmt.Errorf("%w: deadline exceeded", ErrBudget)
		}
	}
	return nil
}

// litTruth returns +1/-1/0 for a literal given its atom id.
func (s *Solver) litTruth(l Lit, id int) int8 {
	v := s.val[id]
	if v == 0 {
		return 0
	}
	if l.Neg {
		return -v
	}
	return v
}

// Minimize finds a model that minimizes variable v within [lo, hi] by
// binary search over upper-bound assertions (each probe is a Push/Solve/Pop
// round). It returns the best model found; ErrUnsat means no model exists
// even at hi, and ErrBudget propagates from the underlying searches.
//
// In CDCL mode the probes share one learned-lemma database: lemmas that
// depend on a probe bound keep the bound's negation as an explicit literal
// (assumption-style learning, see analyze), which makes them sound
// consequences of the persistent clause set and lets them carry over, so
// each probe starts from the pruning its predecessors already paid for.
// The bound atom is interned before the Push so those lemmas also survive
// Pop's atom retraction.
func (s *Solver) Minimize(v Var, lo, hi int64) (*Model, error) {
	var best *Model
	for lo <= hi {
		mid := lo + (hi-lo)/2
		s.internAtom(LEConst(v, mid).A)
		s.Push()
		s.AddClause(LEConst(v, mid))
		m, err := s.Solve()
		s.Pop()
		switch {
		case err == nil:
			best = m
			hi = m.Value(v) - 1
		case errors.Is(err, ErrUnsat):
			lo = mid + 1
		default:
			return nil, err
		}
	}
	if best == nil {
		return nil, ErrUnsat
	}
	return best, nil
}

func (s *Solver) extractModel() *Model {
	m := &Model{vals: make([]int64, s.NumVars())}
	for v := 0; v < s.NumVars(); v++ {
		m.vals[v] = s.g.value(Var(v))
	}
	return m
}
