package smt

import "sort"

// CDCL(T) search core. The boolean skeleton is MiniSat-shaped — two-watched-
// literal propagation, 1UIP conflict analysis with non-chronological
// backjumping, an activity-managed learned-clause database, VSIDS branching
// with phase saving, and Luby restarts — and the difference-logic theory
// participates through explanations: every asserted edge is tagged with the
// literal that asserted it, a negative cycle comes back as the cycle's
// literal set (a theory lemma), and implied atoms are propagated with the
// shortest path that entails them (Cotton–Maler).
//
// Learned clauses persist across Solve calls on the same solver, which is
// what makes Minimize's Push/probe/Pop rounds and the incremental backend's
// re-solves cheap. To keep that sound across Pop, every lemma carries its
// provenance: whether it is derivable from the theory alone (always valid)
// and, if not, the newest problem clause its derivation depends on (valid
// exactly while that clause remains asserted).

// blit is a boolean literal over an interned atom: atomID<<1 | neg.
type blit int32

func mkblit(id int, neg bool) blit {
	b := blit(id) << 1
	if neg {
		b |= 1
	}
	return b
}

func (b blit) id() int      { return int(b >> 1) }
func (b blit) neg() bool    { return b&1 == 1 }
func (b blit) negate() blit { return b ^ 1 }

// Reason kinds for assigned atoms.
const (
	rNone   uint8 = iota // branching decision (or unassigned)
	rClause              // propagated by a problem clause (rIdx = clause index)
	rLearnt              // propagated by a learned clause (rIdx = learnt index)
	rTheory              // theory-propagated (rIdx = explanation index)
)

// Antecedent kinds for conflicts.
const (
	aNone   uint8 = iota
	aClause       // conflicting problem clause
	aLearnt       // conflicting learned clause
	aTheory       // negative cycle (explanation in conflExpl)
)

type antecedent struct {
	kind uint8
	idx  int32
}

// watcher is one entry of a literal's watch list: the clause reference and
// a blocker literal (some other literal of the clause; if it is already
// true the clause needs no work).
type watcher struct {
	ref     int32 // >= 0: problem clause index; < 0: learnt index -1-ref
	blocker blit
}

// prov is a lemma's provenance: theoryOnly lemmas are pure difference-logic
// tautologies, valid regardless of the clause set; otherwise maxDep is the
// largest problem-clause index the derivation used (transitively), and the
// lemma stays valid exactly while that clause remains asserted.
type prov struct {
	theoryOnly bool
	maxDep     int32
}

func (p prov) fold(o prov) prov {
	p.theoryOnly = p.theoryOnly && o.theoryOnly
	if o.maxDep > p.maxDep {
		p.maxDep = o.maxDep
	}
	return p
}

type learnt struct {
	lits       []blit
	act        float64
	lbd        int32
	theoryOnly bool
	maxDep     int32
}

// cdclState holds the CDCL-mode search state. Activities, saved phases,
// and the learned-clause DB persist across Solve calls; everything else is
// rebuilt by init.
type cdclState struct {
	// per-atom, rebuilt each solve
	level []int32
	rKind []uint8
	rIdx  []int32
	// root-assignment provenance, valid for atoms assigned at level 0.
	rootTO  []bool
	rootDep []int32

	trail     []blit
	trailLim  []int
	edgeMarks []int // graph undo marks per decision level
	piMarks   []int
	qhead     int
	tpMark    int // edgeLog index up to which theory propagation ran

	watches [][]watcher // per blit

	// code holds a solver-local blit copy of every problem clause, packed
	// into codeArena. BCP keeps the two watched literals at positions 0/1
	// by swapping in place — only possible because this copy (unlike the
	// shared clause arenas) is private to this solver.
	code      [][]blit
	codeArena []blit

	// stable is the problem-clause count below the outermost Push mark:
	// clauses at or above it can be retracted by a Pop, so root literals
	// depending on them are kept in learned clauses (assumption style)
	// instead of being resolved away.
	stable int32

	// persistent across solves
	learnts   []learnt
	activity  []float64 // per atom
	saved     []int8    // per atom: last assigned phase
	varInc    float64
	clauseInc float64

	// branching heap: indexed max-heap over unassigned atoms.
	heap    []int32
	heapPos []int32

	// analysis scratch
	seen      []bool
	seenList  []int
	learnBuf  []blit
	lbdStamp  []int32
	lbdEpoch  int32
	conflExpl []int32 // theory-conflict explanation (true literals)
	expls     [][]int32

	// restart/reduce bookkeeping
	conflictsSinceRestart int64
	restartLimit          int64
	lubyIdx               int64
	maxLearnts            int

	// theory-propagation Dijkstra scratch
	db, df dists
}

const (
	restartBase       = 100 // conflicts before the first restart; scaled by the Luby sequence
	varDecayFactor    = 0.95
	clauseDecayFactor = 0.999
	activityRescale   = 1e100
)

// luby returns the i-th element (1-based) of the Luby restart sequence:
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int64) int64 {
	for {
		k := int64(1)
		for (int64(1)<<k)-1 < i {
			k++
		}
		if (int64(1)<<k)-1 == i {
			return int64(1) << (k - 1)
		}
		i = i - (int64(1) << (k - 1)) + 1
	}
}

// solveCDCL is the CDCL(T) main loop.
func (s *Solver) solveCDCL() (*Model, error) {
	s.resetCommon()
	c := &s.cdcl
	if !c.init(s) {
		return nil, ErrUnsat
	}
	// Propagate the root level before building the branching heap: on the
	// scheduler's instances a large share of atoms is fixed by unit
	// clauses, and atoms assigned here never backtrack, so keeping them
	// out of the heap saves one O(log n) pop per atom per solve.
	if confl := c.propagate(s); confl.kind != aNone {
		s.stats.Conflicts++
		return nil, ErrUnsat
	}
	c.fillHeap(s)
	for {
		confl := c.propagate(s)
		if confl.kind != aNone {
			s.stats.Conflicts++
			if len(c.trailLim) == 0 {
				return nil, ErrUnsat
			}
			if err := s.checkBudget(); err != nil {
				return nil, err
			}
			c.handleConflict(s, confl)
			continue
		}
		if err := s.checkBudget(); err != nil {
			return nil, err
		}
		if c.conflictsSinceRestart >= c.restartLimit {
			c.restart(s)
			continue
		}
		if !c.decide(s) {
			return s.extractModel(), nil
		}
	}
}

// init sizes the per-atom arrays, rebuilds the watch lists, and enqueues
// unit clauses at the root level. It returns false on an immediately
// contradictory clause set (empty clause, or clashing unit literals).
func (c *cdclState) init(s *Solver) bool {
	n := len(s.atoms)
	c.level = resizeI32(c.level, n)
	c.rKind = resizeU8(c.rKind, n)
	c.rIdx = resizeI32(c.rIdx, n)
	c.rootTO = resizeBool(c.rootTO, n)
	c.rootDep = resizeI32(c.rootDep, n)
	c.seen = resizeBool(c.seen, n)
	c.seenList = c.seenList[:0]
	for len(c.activity) < n {
		c.activity = append(c.activity, 0)
	}
	c.activity = c.activity[:n]
	for len(c.saved) < n {
		c.saved = append(c.saved, 0)
	}
	c.saved = c.saved[:n]
	if c.varInc == 0 {
		c.varInc = 1
	}
	if c.clauseInc == 0 {
		c.clauseInc = 1
	}

	c.trail = c.trail[:0]
	c.trailLim = c.trailLim[:0]
	c.edgeMarks = c.edgeMarks[:0]
	c.piMarks = c.piMarks[:0]
	c.qhead = 0
	c.tpMark = 0
	c.expls = c.expls[:0]
	c.conflictsSinceRestart = 0
	c.lubyIdx = 1
	c.restartLimit = restartBase * luby(c.lubyIdx)
	if min := 1000 + len(s.clauses)/2; c.maxLearnts < min {
		c.maxLearnts = min
	}

	// Clauses below the outermost Push mark cannot be retracted by a Pop;
	// anything above it can, so root literals depending on those stay in
	// learned clauses instead of being resolved away.
	c.stable = int32(len(s.clauses))
	if len(s.marks) > 0 {
		c.stable = int32(s.marks[0].clauses)
	}

	// Solver-local clause code: every problem clause's blits packed into
	// one arena, so BCP can keep the watched pair at positions 0/1 with
	// in-place swaps and read literals without touching the shared arenas.
	c.codeArena = c.codeArena[:0]
	for ci := range s.clauses {
		cl := &s.clauses[ci]
		for k := range cl.ids {
			c.codeArena = append(c.codeArena, mkblit(cl.ids[k], cl.lits[k].Neg))
		}
	}
	c.code = c.code[:0]
	off := 0
	for ci := range s.clauses {
		w := len(s.clauses[ci].lits)
		c.code = append(c.code, c.codeArena[off:off+w:off+w])
		off += w
	}

	// Watch lists: two per clause. Unit clauses go straight to the root
	// trail; an empty clause is an immediate contradiction.
	for len(c.watches) < 2*n {
		c.watches = append(c.watches, nil)
	}
	c.watches = c.watches[:2*n]
	for i := range c.watches {
		c.watches[i] = c.watches[i][:0]
	}
	for ci := range c.code {
		lits := c.code[ci]
		switch len(lits) {
		case 0:
			return false
		case 1:
			if !c.enqueue(s, lits[0], rClause, int32(ci)) {
				return false
			}
		default:
			c.attach(int32(ci), lits[0], lits[1])
		}
	}
	for li := range c.learnts {
		le := &c.learnts[li]
		if len(le.lits) == 1 {
			if !c.enqueue(s, le.lits[0], rLearnt, int32(li)) {
				return false
			}
			continue
		}
		c.attach(int32(-1-li), le.lits[0], le.lits[1])
	}

	// Branching heap over all atoms.
	c.heapPos = resizeI32(c.heapPos, n)
	for i := range c.heapPos {
		c.heapPos[i] = -1
	}
	c.heap = c.heap[:0]
	return true
}

// fillHeap inserts every still-unassigned atom into the branching heap;
// called after root propagation so root-fixed atoms never enter it.
func (c *cdclState) fillHeap(s *Solver) {
	for id := range s.atoms {
		if s.val[id] == 0 {
			c.heapInsert(s, int32(id))
		}
	}
}

func resizeI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func resizeU8(buf []uint8, n int) []uint8 {
	if cap(buf) < n {
		return make([]uint8, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func resizeBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

func (c *cdclState) attach(ref int32, l0, l1 blit) {
	c.watches[l0] = append(c.watches[l0], watcher{ref: ref, blocker: l1})
	c.watches[l1] = append(c.watches[l1], watcher{ref: ref, blocker: l0})
}

// truth returns +1/-1/0 for a boolean literal.
func (c *cdclState) truth(s *Solver, b blit) int8 {
	v := s.val[b.id()]
	if v == 0 {
		return 0
	}
	if b.neg() {
		return -v
	}
	return v
}

// litsOf returns the literal slice backing a watcher reference: the
// solver-local code copy for problem clauses, the learnt's own slice for
// lemmas. Both are private to this solver, so BCP may reorder them.
func (c *cdclState) litsOf(ref int32) []blit {
	if ref >= 0 {
		return c.code[ref]
	}
	return c.learnts[-1-ref].lits
}

func reasonOfRef(ref int32) (uint8, int32) {
	if ref >= 0 {
		return rClause, ref
	}
	return rLearnt, -1 - ref
}

// enqueue assigns the literal true at the current decision level. It
// returns false if the literal is already false.
func (c *cdclState) enqueue(s *Solver, p blit, kind uint8, idx int32) bool {
	id := p.id()
	want := int8(1)
	if p.neg() {
		want = -1
	}
	if s.val[id] != 0 {
		return s.val[id] == want
	}
	s.val[id] = want
	c.level[id] = int32(len(c.trailLim))
	c.rKind[id] = kind
	c.rIdx[id] = idx
	if len(c.trailLim) == 0 {
		c.computeRootProv(s, id, p, kind, idx)
	}
	c.trail = append(c.trail, p)
	return true
}

// computeRootProv records what a root-level assignment depends on: its own
// reason plus, transitively, the provenance of every other root literal in
// that reason. Conflict analysis drops root-level literals from learned
// clauses, which implicitly resolves against their entire derivations —
// the provenance makes that dependency explicit so Pop can judge lemmas.
func (c *cdclState) computeRootProv(s *Solver, id int, p blit, kind uint8, idx int32) {
	pv := c.reasonProv(kind, idx)
	switch kind {
	case rClause, rLearnt:
		ref := idx
		if kind == rLearnt {
			ref = -1 - idx
		}
		for _, q := range c.litsOf(ref) {
			if q == p {
				continue
			}
			pv = pv.fold(c.rootProvOf(q.id()))
		}
	case rTheory:
		for _, e := range c.expls[idx] {
			if e == noLit {
				continue
			}
			pv = pv.fold(c.rootProvOf(blit(e).id()))
		}
	}
	c.rootTO[id] = pv.theoryOnly
	c.rootDep[id] = pv.maxDep
}

func (c *cdclState) rootProvOf(id int) prov {
	return prov{theoryOnly: c.rootTO[id], maxDep: c.rootDep[id]}
}

func (c *cdclState) reasonProv(kind uint8, idx int32) prov {
	switch kind {
	case rClause:
		return prov{theoryOnly: false, maxDep: idx}
	case rLearnt:
		le := &c.learnts[idx]
		return prov{theoryOnly: le.theoryOnly, maxDep: le.maxDep}
	default: // rTheory, rNone
		return prov{theoryOnly: true, maxDep: -1}
	}
}

// propagate runs boolean and theory propagation to fixpoint. It returns
// the conflicting antecedent, or kind aNone.
func (c *cdclState) propagate(s *Solver) antecedent {
	for {
		for c.qhead < len(c.trail) {
			p := c.trail[c.qhead]
			c.qhead++
			// Assert the literal's difference edge. A negative cycle is a
			// theory conflict explained by the cycle's literal set.
			l := Lit{A: s.atoms[p.id()], Neg: p.neg()}
			from, to, w := l.edge()
			s.stats.TheoryChecks++
			if !s.g.addEdge(from, to, w, int32(p)) {
				c.conflExpl = append(c.conflExpl[:0], s.g.conflict()...)
				return antecedent{kind: aTheory}
			}
			if confl := c.bcp(s, p.negate()); confl.kind != aNone {
				return confl
			}
		}
		if !s.TheoryProp {
			return antecedent{}
		}
		if c.theoryPropagate(s) == 0 {
			return antecedent{}
		}
		// Implied literals were enqueued; run them through BCP too.
	}
}

// bcp visits the watchers of a newly falsified literal. The watched pair
// of every clause lives at positions 0/1 of its solver-local literal
// slice, maintained by in-place swaps.
func (c *cdclState) bcp(s *Solver, fl blit) antecedent {
	ws := c.watches[fl]
	i, j := 0, 0
	for i < len(ws) {
		w := ws[i]
		if c.truth(s, w.blocker) > 0 {
			ws[j] = w
			i++
			j++
			continue
		}
		lits := c.litsOf(w.ref)
		if lits[0] == fl {
			lits[0], lits[1] = lits[1], lits[0]
		}
		other := lits[0]
		if other != w.blocker && c.truth(s, other) > 0 {
			ws[j] = watcher{ref: w.ref, blocker: other}
			i++
			j++
			continue
		}
		// Look for a non-false replacement literal to watch instead.
		moved := false
		for k := 2; k < len(lits); k++ {
			if c.truth(s, lits[k]) >= 0 {
				lits[1], lits[k] = lits[k], lits[1]
				c.watches[lits[1]] = append(c.watches[lits[1]], watcher{ref: w.ref, blocker: other})
				moved = true
				break
			}
		}
		if moved {
			i++ // watcher leaves this list
			continue
		}
		if c.truth(s, other) < 0 {
			// Conflict: compact the remainder and report.
			for ; i < len(ws); i++ {
				ws[j] = ws[i]
				j++
			}
			c.watches[fl] = ws[:j]
			kind, idx := reasonOfRef(w.ref)
			return antecedent{kind: kind + (aClause - rClause), idx: idx}
		}
		// Unit: the other watched literal is forced.
		s.stats.Propagations++
		kind, idx := reasonOfRef(w.ref)
		c.enqueue(s, other, kind, idx)
		ws[j] = w
		i++
		j++
	}
	c.watches[fl] = ws[:j]
	return antecedent{}
}

// decide picks the highest-activity unassigned atom and assigns its saved
// phase (falling back to a theory lookahead against the current
// potentials). It returns false when every atom is assigned — a model.
func (c *cdclState) decide(s *Solver) bool {
	// Every assigned atom sits on the trail exactly once, so a full trail
	// is a model — without this check, finishing a solve meant popping
	// every BCP-assigned atom through the heap one by one.
	if len(c.trail) == len(s.atoms) {
		return false
	}
	id := c.popUnassigned(s)
	if id < 0 {
		return false
	}
	c.trailLim = append(c.trailLim, len(c.trail))
	c.edgeMarks = append(c.edgeMarks, s.g.markEdges())
	c.piMarks = append(c.piMarks, s.g.markPi())
	s.stats.Decisions++
	if lvl := int64(len(c.trailLim)); lvl > s.stats.MaxDecisionLevel {
		s.stats.MaxDecisionLevel = lvl
	}
	ph := c.saved[id]
	if ph == 0 {
		if s.g.holds(s.atoms[id]) {
			ph = 1
		} else {
			ph = -1
		}
	}
	c.enqueue(s, mkblit(id, ph < 0), rNone, 0)
	return true
}

// backjump undoes the trail and theory state down to the given level,
// saving phases for restored atoms.
func (c *cdclState) backjump(s *Solver, lvl int) {
	if len(c.trailLim) <= lvl {
		return
	}
	s.g.undoTo(c.edgeMarks[lvl], c.piMarks[lvl])
	if c.tpMark > len(s.g.edgeLog) {
		c.tpMark = len(s.g.edgeLog)
	}
	for i := len(c.trail) - 1; i >= c.trailLim[lvl]; i-- {
		id := c.trail[i].id()
		c.saved[id] = s.val[id]
		s.val[id] = 0
		c.rKind[id] = rNone
		c.heapInsert(s, int32(id))
	}
	c.trail = c.trail[:c.trailLim[lvl]]
	c.trailLim = c.trailLim[:lvl]
	c.edgeMarks = c.edgeMarks[:lvl]
	c.piMarks = c.piMarks[:lvl]
	c.qhead = len(c.trail)
}

func (c *cdclState) restart(s *Solver) {
	c.backjump(s, 0)
	s.stats.Restarts++
	c.conflictsSinceRestart = 0
	c.lubyIdx++
	c.restartLimit = restartBase * luby(c.lubyIdx)
	if len(c.learnts) > c.maxLearnts {
		c.reduceDB(s)
	}
}

// handleConflict analyzes the conflict, backjumps, and asserts the learned
// clause.
func (c *cdclState) handleConflict(s *Solver, confl antecedent) {
	c.conflictsSinceRestart++
	lits, backLvl, pv := c.analyze(s, confl)
	c.backjump(s, backLvl)
	s.stats.Learned++
	li := c.addLearnt(s, lits, pv)
	s.stats.Propagations++
	c.enqueue(s, lits[0], rLearnt, li)
	c.varInc /= varDecayFactor
	c.clauseInc /= clauseDecayFactor
}

// analyze performs 1UIP conflict analysis. The returned slice (valid until
// the next analyze call) has the asserting literal at index 0 and, when
// longer than one literal, a literal of the backjump level at index 1.
func (c *cdclState) analyze(s *Solver, confl antecedent) ([]blit, int, prov) {
	curLvl := int32(len(c.trailLim))
	c.learnBuf = append(c.learnBuf[:0], 0) // slot for the asserting literal
	pv := prov{theoryOnly: true, maxDep: -1}
	counter := 0
	idx := len(c.trail) - 1
	p := blit(-1)
	ant := confl
	for {
		pv = pv.fold(c.antecedentProv(ant))
		if ant.kind == aLearnt {
			c.bumpLearnt(ant.idx)
		}
		c.forEachFalseLit(s, ant, p, func(q blit) {
			id := q.id()
			if c.seen[id] {
				return
			}
			lvl := c.level[id]
			if lvl == 0 {
				// Root literals with stable derivations are resolved away
				// (the lemma absorbs their provenance). Literals depending on
				// poppable clauses — e.g. a Minimize probe bound — are kept
				// in the lemma, assumption style, so the lemma itself remains
				// a consequence of the stable clause set and survives Pop.
				rp := c.rootProvOf(id)
				if !rp.theoryOnly && rp.maxDep >= c.stable {
					c.seen[id] = true
					c.seenList = append(c.seenList, id)
					c.learnBuf = append(c.learnBuf, q)
					return
				}
				pv = pv.fold(rp)
				return
			}
			c.seen[id] = true
			c.seenList = append(c.seenList, id)
			c.bumpVar(s, id)
			if lvl == curLvl {
				counter++
			} else {
				c.learnBuf = append(c.learnBuf, q)
			}
		})
		for !c.seen[c.trail[idx].id()] {
			idx--
		}
		p = c.trail[idx]
		idx--
		c.seen[p.id()] = false
		counter--
		if counter == 0 {
			break
		}
		ant = antecedent{kind: c.rKind[p.id()] + (aClause - rClause), idx: c.rIdx[p.id()]}
	}
	c.learnBuf[0] = p.negate()

	// Minimization: a literal is redundant when its atom's reason is
	// subsumed by the remaining clause (every reason literal is either in
	// the clause or root-assigned). Removing it resolves against that
	// reason, so the reason's provenance folds into the lemma's.
	c.seen[p.id()] = true
	c.seenList = append(c.seenList, p.id())
	j := 1
	for k := 1; k < len(c.learnBuf); k++ {
		if c.redundant(s, c.learnBuf[k], &pv) {
			continue
		}
		c.learnBuf[j] = c.learnBuf[k]
		j++
	}
	c.learnBuf = c.learnBuf[:j]

	for _, id := range c.seenList {
		c.seen[id] = false
	}
	c.seenList = c.seenList[:0]

	// Backjump to the second-highest level; keep one of its literals in
	// watch position 1 so the clause stays unit there.
	backLvl := 0
	for k := 1; k < len(c.learnBuf); k++ {
		if l := int(c.level[c.learnBuf[k].id()]); l > backLvl {
			backLvl = l
			c.learnBuf[1], c.learnBuf[k] = c.learnBuf[k], c.learnBuf[1]
		}
	}
	return c.learnBuf, backLvl, pv
}

// redundant reports whether a learnt literal can be dropped because its
// atom's reason is subsumed by the rest of the clause; on success the
// reason's provenance (plus any root literals it folds away) is merged
// into pv.
func (c *cdclState) redundant(s *Solver, q blit, pv *prov) bool {
	id := q.id()
	if c.level[id] == 0 {
		// A root literal in the buffer was kept deliberately (unstable
		// derivation); dropping it would re-absorb that derivation.
		return false
	}
	kind, idx := c.rKind[id], c.rIdx[id]
	if kind == rNone {
		return false
	}
	tmp := c.reasonProv(kind, idx)
	ok := true
	c.forEachFalseLit(s, antecedent{kind: kind + (aClause - rClause), idx: idx}, q.negate(), func(r blit) {
		if !ok {
			return
		}
		rid := r.id()
		if c.seen[rid] {
			return // already in the clause
		}
		if c.level[rid] == 0 {
			rp := c.rootProvOf(rid)
			if !rp.theoryOnly && rp.maxDep >= c.stable {
				ok = false // would absorb an unstable root derivation
				return
			}
			tmp = tmp.fold(rp)
			return
		}
		ok = false
	})
	if ok {
		*pv = pv.fold(tmp)
	}
	return ok
}

// forEachFalseLit visits the false literals of an antecedent, skipping the
// propagated literal itself. For clause antecedents those are the clause
// literals; for theory antecedents (explanations E with E ⊨ p, or a
// negative cycle E ⊨ ⊥) they are the negations of the explanation's true
// literals.
func (c *cdclState) forEachFalseLit(s *Solver, ant antecedent, p blit, fn func(blit)) {
	switch ant.kind {
	case aClause, aLearnt:
		ref := ant.idx
		if ant.kind == aLearnt {
			ref = -1 - ant.idx
		}
		for _, q := range c.litsOf(ref) {
			if q != p {
				fn(q)
			}
		}
	case aTheory:
		expl := c.conflExpl
		if p != blit(-1) {
			expl = c.expls[c.rIdx[p.id()]]
		}
		for _, e := range expl {
			if e == noLit {
				continue // untagged edge: an unconditional theory fact
			}
			fn(blit(e).negate())
		}
	}
}

func (c *cdclState) antecedentProv(ant antecedent) prov {
	switch ant.kind {
	case aClause:
		return prov{theoryOnly: false, maxDep: ant.idx}
	case aLearnt:
		le := &c.learnts[ant.idx]
		return prov{theoryOnly: le.theoryOnly, maxDep: le.maxDep}
	default:
		return prov{theoryOnly: true, maxDep: -1}
	}
}

// addLearnt stores a learned clause, attaches watchers, and bumps its
// activity. Returns the learnt index.
func (c *cdclState) addLearnt(s *Solver, lits []blit, pv prov) int32 {
	le := learnt{
		lits:       append([]blit(nil), lits...),
		act:        c.clauseInc,
		lbd:        c.computeLBD(lits),
		theoryOnly: pv.theoryOnly,
		maxDep:     pv.maxDep,
	}
	li := int32(len(c.learnts))
	c.learnts = append(c.learnts, le)
	if len(lits) >= 2 {
		c.attach(-1-li, le.lits[0], le.lits[1])
	}
	return li
}

func (c *cdclState) computeLBD(lits []blit) int32 {
	c.lbdEpoch++
	for len(c.lbdStamp) <= len(c.trailLim) {
		c.lbdStamp = append(c.lbdStamp, 0)
	}
	var lbd int32
	for _, q := range lits {
		lvl := c.level[q.id()]
		if int(lvl) < len(c.lbdStamp) && c.lbdStamp[lvl] != c.lbdEpoch {
			c.lbdStamp[lvl] = c.lbdEpoch
			lbd++
		}
	}
	return lbd
}

// reduceDB halves the learned-clause database. Only locked clauses
// (reasons of live assignments) and binary clauses are exempt; the rest
// are ranked by LBD (higher deleted first) with activity as tie-break, so
// glue clauses are preferred but cannot pile up unboundedly — an unbounded
// DB is worse than a forgetful one, because every retained clause taxes
// BCP through its two watch lists.
func (c *cdclState) reduceDB(s *Solver) {
	locked := make(map[int32]bool)
	for _, p := range c.trail {
		if c.rKind[p.id()] == rLearnt {
			locked[c.rIdx[p.id()]] = true
		}
	}
	type cand struct {
		li  int32
		lbd int32
		act float64
	}
	cands := make([]cand, 0, len(c.learnts))
	for li := range c.learnts {
		le := &c.learnts[li]
		if locked[int32(li)] || len(le.lits) <= 2 {
			continue
		}
		cands = append(cands, cand{li: int32(li), lbd: le.lbd, act: le.act})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lbd != cands[j].lbd {
			return cands[i].lbd > cands[j].lbd
		}
		return cands[i].act < cands[j].act
	})
	drop := make(map[int32]bool, len(cands)/2)
	for _, cd := range cands[:len(cands)/2] {
		drop[cd.li] = true
	}
	if len(drop) == 0 {
		c.maxLearnts += c.maxLearnts / 2
		return
	}
	remap := make([]int32, len(c.learnts))
	kept := c.learnts[:0]
	for li := range c.learnts {
		if drop[int32(li)] {
			remap[li] = -1
			continue
		}
		remap[li] = int32(len(kept))
		kept = append(kept, c.learnts[li])
	}
	c.learnts = kept
	for _, p := range c.trail {
		if c.rKind[p.id()] == rLearnt {
			c.rIdx[p.id()] = remap[c.rIdx[p.id()]]
		}
	}
	c.rebuildWatches(s)
	c.maxLearnts += c.maxLearnts / 20
}

// rebuildWatches reconstructs every watch list from the watched pairs at
// positions 0/1 of each clause's literal slice (used after learned-clause
// deletion, which invalidates learnt references embedded in the lists).
func (c *cdclState) rebuildWatches(s *Solver) {
	for i := range c.watches {
		c.watches[i] = c.watches[i][:0]
	}
	for ci := range c.code {
		lits := c.code[ci]
		if len(lits) < 2 {
			continue
		}
		c.attach(int32(ci), lits[0], lits[1])
	}
	for li := range c.learnts {
		le := &c.learnts[li]
		if len(le.lits) < 2 {
			continue
		}
		c.attach(int32(-1-li), le.lits[0], le.lits[1])
	}
}

// pruneLearnts drops lemmas invalidated by a Pop: any lemma mentioning a
// retracted atom, and any clause-derived lemma whose derivation used a
// retracted problem clause. Theory lemmas over surviving atoms always
// stay. Called between solves, so no watch or reason state is live.
func (c *cdclState) pruneLearnts(maxClause, maxAtom int) {
	if len(c.learnts) == 0 {
		return
	}
	kept := c.learnts[:0]
	for li := range c.learnts {
		le := &c.learnts[li]
		if !le.theoryOnly && int(le.maxDep) >= maxClause {
			continue
		}
		ok := true
		for _, q := range le.lits {
			if q.id() >= maxAtom {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, c.learnts[li])
		}
	}
	c.learnts = kept
}

// ---- VSIDS ----

func (c *cdclState) bumpLearnt(li int32) {
	le := &c.learnts[li]
	le.act += c.clauseInc
	if le.act > activityRescale {
		for i := range c.learnts {
			c.learnts[i].act *= 1 / activityRescale
		}
		c.clauseInc *= 1 / activityRescale
	}
}

func (c *cdclState) bumpVar(s *Solver, id int) {
	c.activity[id] += c.varInc
	if c.activity[id] > activityRescale {
		for i := range c.activity {
			c.activity[i] *= 1 / activityRescale
		}
		c.varInc *= 1 / activityRescale
	}
	if c.heapPos[id] >= 0 {
		c.siftUpHeap(s, c.heapPos[id])
	}
}

// heapLess orders the branching heap: higher activity first, ties broken
// by atom order.
func (c *cdclState) heapLess(s *Solver, a, b int32) bool {
	if c.activity[a] != c.activity[b] {
		return c.activity[a] > c.activity[b]
	}
	return a < b
}

func (c *cdclState) heapInsert(s *Solver, id int32) {
	if c.heapPos[id] >= 0 {
		return
	}
	c.heapPos[id] = int32(len(c.heap))
	c.heap = append(c.heap, id)
	c.siftUpHeap(s, int32(len(c.heap)-1))
}

func (c *cdclState) siftUpHeap(s *Solver, i int32) {
	for i > 0 {
		p := (i - 1) / 2
		if !c.heapLess(s, c.heap[i], c.heap[p]) {
			return
		}
		c.heapSwap(i, p)
		i = p
	}
}

func (c *cdclState) siftDownHeap(s *Solver, i int32) {
	n := int32(len(c.heap))
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && c.heapLess(s, c.heap[l], c.heap[best]) {
			best = l
		}
		if r < n && c.heapLess(s, c.heap[r], c.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		c.heapSwap(i, best)
		i = best
	}
}

func (c *cdclState) heapSwap(i, j int32) {
	c.heap[i], c.heap[j] = c.heap[j], c.heap[i]
	c.heapPos[c.heap[i]] = i
	c.heapPos[c.heap[j]] = j
}

// popUnassigned pops heap entries until an unassigned atom surfaces.
// Returns -1 when every atom is assigned.
func (c *cdclState) popUnassigned(s *Solver) int {
	for len(c.heap) > 0 {
		id := c.heap[0]
		n := int32(len(c.heap) - 1)
		c.heapSwap(0, n)
		c.heap = c.heap[:n]
		c.heapPos[id] = -1
		if n > 0 {
			c.siftDownHeap(s, 0)
		}
		if s.val[id] == 0 {
			return int(id)
		}
	}
	return -1
}

// ---- theory propagation ----

// theoryPropagate finds interned atoms entailed by the edges asserted
// since the last pass and enqueues them with shortest-path explanations.
// For a new edge e = (u -> v, w), a backward reduced-cost Dijkstra to u
// and a forward one from v give the best path y -> u -> v -> x for every
// (y, x) pair, so an unassigned atom x - y <= c is entailed through e iff
// dist(y,u) + w + dist(v,x) <= c, and its negation iff the symmetric path
// bounds -c-1. The potentials make all reduced costs non-negative, which
// is what admits Dijkstra here. Returns the number of literals enqueued.
func (c *cdclState) theoryPropagate(s *Solver) int {
	g := s.g
	enq := 0
	for c.tpMark < len(g.edgeLog) {
		e := g.edgeLog[c.tpMark]
		c.tpMark++
		g.dijkstra(e.from, g.in, true, &c.db)
		g.dijkstra(e.to, g.out, false, &c.df)
		base := e.w + g.pi[e.from] - g.pi[e.to]
		for id := range s.atoms {
			if s.val[id] != 0 {
				continue
			}
			a := s.atoms[id]
			if c.db.reached(a.Y) && c.df.reached(a.X) {
				d := c.db.rd[a.Y] + c.df.rd[a.X] + base - g.pi[a.Y] + g.pi[a.X]
				if d <= a.C {
					c.enqueueImplied(s, mkblit(id, false), a.Y, a.X, e)
					enq++
					continue
				}
			}
			if c.db.reached(a.X) && c.df.reached(a.Y) {
				d := c.db.rd[a.X] + c.df.rd[a.Y] + base - g.pi[a.X] + g.pi[a.Y]
				if d <= -a.C-1 {
					c.enqueueImplied(s, mkblit(id, true), a.X, a.Y, e)
					enq++
				}
			}
		}
	}
	return enq
}

// enqueueImplied asserts a theory-entailed literal whose witness path runs
// src -> e.from, the new edge, e.to -> dst. The explanation is the literal
// set of the path's edges.
func (c *cdclState) enqueueImplied(s *Solver, p blit, src, dst Var, e loggedEdge) {
	expl := make([]int32, 0, 8)
	if e.lit != noLit {
		expl = append(expl, e.lit)
	}
	for v := src; v != e.from; v = c.db.parentVar[v] {
		if l := c.db.parentLit[v]; l != noLit {
			expl = append(expl, l)
		}
	}
	for v := dst; v != e.to; v = c.df.parentVar[v] {
		if l := c.df.parentLit[v]; l != noLit {
			expl = append(expl, l)
		}
	}
	idx := int32(len(c.expls))
	c.expls = append(c.expls, expl)
	s.stats.TheoryProps++
	c.enqueue(s, p, rTheory, idx)
}
