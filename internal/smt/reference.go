package smt

// The reference solver is the original chronological-backtracking DPLL:
// clause state is tracked with per-clause true/false counters, every
// decision rescans for an open clause, and every conflict undoes exactly
// one decision. It is deliberately kept as an independently implemented
// oracle for the CDCL core (see FuzzDifferential): the two searches share
// only the clause storage and the theory graph, so a SAT/UNSAT
// disagreement localizes a bug in one of them.

// solveReference runs the chronological search.
func (s *Solver) solveReference() (*Model, error) {
	s.resetReference()
	// Assert unit clauses and propagate at the root level.
	if !s.propagateRoot() {
		return nil, ErrUnsat
	}
	for {
		if err := s.checkBudget(); err != nil {
			return nil, err
		}
		ci := s.findOpenClause()
		if ci < 0 {
			return s.extractModel(), nil
		}
		lit, id, ok := s.pickLiteral(ci)
		if !ok {
			// All literals of an unsatisfied clause are false:
			// conflict discovered outside propagation.
			if !s.resolveConflict() {
				return nil, ErrUnsat
			}
			continue
		}
		s.stats.Decisions++
		if lvl := int64(len(s.decisions) + 1); lvl > s.stats.MaxDecisionLevel {
			s.stats.MaxDecisionLevel = lvl
		}
		s.decisions = append(s.decisions, decisionFrame{
			lit:       lit,
			litID:     id,
			trailMark: len(s.trail),
			edgeMark:  s.g.markEdges(),
			piMark:    s.g.markPi(),
		})
		if !s.assign(lit, id) || !s.propagate() {
			if !s.resolveConflict() {
				return nil, ErrUnsat
			}
		}
	}
}

func (s *Solver) resetReference() {
	s.resetCommon()
	// Counter buffers are pooled across re-solves: incremental scheduling
	// re-solves the same instance dozens of times, and reallocating two
	// len(clauses) slices per call showed up in profiles.
	s.numTrue = resizeCounters(s.numTrue, len(s.clauses))
	s.numFalse = resizeCounters(s.numFalse, len(s.clauses))
	s.propQueue = s.propQueue[:0]
}

// resizeCounters returns a zeroed []int32 of length n, reusing buf's
// backing array when it is large enough.
func resizeCounters(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// assign makes the literal true: records the atom value, updates clause
// counters, and asserts the theory edge. It returns false on theory
// conflict (the assignment is rolled back by the caller via backtracking,
// so the bookkeeping is still applied).
func (s *Solver) assign(l Lit, id int) bool {
	want := int8(1)
	if l.Neg {
		want = -1
	}
	if s.val[id] != 0 {
		return s.val[id] == want
	}
	s.val[id] = want
	s.trail = append(s.trail, id)
	for _, ci := range s.watch[id] {
		cl := &s.clauses[ci]
		for i, cid := range cl.ids {
			if cid != id {
				continue
			}
			if s.litTruth(cl.lits[i], id) > 0 {
				s.numTrue[ci]++
			} else {
				s.numFalse[ci]++
				if s.numTrue[ci] == 0 {
					s.propQueue = append(s.propQueue, ci)
				}
			}
		}
	}
	from, to, w := l.edge()
	s.stats.TheoryChecks++
	return s.g.addEdge(from, to, w, noLit)
}

// propagate runs unit propagation to fixpoint. It returns false on conflict.
func (s *Solver) propagate() bool {
	for len(s.propQueue) > 0 {
		ci := s.propQueue[len(s.propQueue)-1]
		s.propQueue = s.propQueue[:len(s.propQueue)-1]
		cl := &s.clauses[ci]
		if s.numTrue[ci] > 0 {
			continue
		}
		open := int(len(cl.lits)) - int(s.numFalse[ci])
		switch {
		case open == 0:
			return false
		case open == 1:
			// Find the unassigned literal and force it.
			for i, id := range cl.ids {
				if s.val[id] == 0 {
					s.stats.Propagations++
					if !s.assign(cl.lits[i], id) {
						return false
					}
					break
				}
			}
		}
	}
	return true
}

// propagateRoot asserts all unit clauses at the root level and propagates.
func (s *Solver) propagateRoot() bool {
	for ci := range s.clauses {
		cl := &s.clauses[ci]
		if len(cl.lits) == 0 {
			return false
		}
		if len(cl.lits) == 1 {
			if s.litTruth(cl.lits[0], cl.ids[0]) < 0 {
				return false
			}
			if !s.assign(cl.lits[0], cl.ids[0]) {
				return false
			}
		}
	}
	return s.propagate()
}

// findOpenClause returns the index of a clause with no true literal, or -1.
func (s *Solver) findOpenClause() int {
	for ci := range s.clauses {
		if s.numTrue[ci] == 0 {
			return ci
		}
	}
	return -1
}

// pickLiteral chooses an unassigned literal of the clause, preferring one
// already satisfied by the current potentials (a free theory lookahead).
func (s *Solver) pickLiteral(ci int) (Lit, int, bool) {
	cl := &s.clauses[ci]
	fallback := -1
	for i, id := range cl.ids {
		if s.val[id] != 0 {
			continue
		}
		if fallback < 0 {
			fallback = i
		}
		l := cl.lits[i]
		holds := s.g.holds(l.A)
		if holds != l.Neg { // literal true under current potentials
			return l, id, true
		}
	}
	if fallback < 0 {
		return Lit{}, 0, false
	}
	return cl.lits[fallback], cl.ids[fallback], true
}

// resolveConflict backtracks chronologically: undo decisions until one can
// be flipped, flip it, and re-propagate. Returns false when the root level
// is reached (UNSAT).
func (s *Solver) resolveConflict() bool {
	s.stats.Conflicts++
	for len(s.decisions) > 0 {
		d := s.decisions[len(s.decisions)-1]
		s.undoTo(d.trailMark, d.edgeMark, d.piMark)
		s.decisions = s.decisions[:len(s.decisions)-1]
		if d.flipped {
			continue
		}
		flipped := Not(d.lit)
		s.decisions = append(s.decisions, decisionFrame{
			lit:       flipped,
			litID:     d.litID,
			trailMark: d.trailMark,
			edgeMark:  d.edgeMark,
			piMark:    d.piMark,
			flipped:   true,
		})
		if s.assign(flipped, d.litID) && s.propagate() {
			return true
		}
		s.stats.Conflicts++
	}
	return false
}

func (s *Solver) undoTo(trailMark, edgeMark, piMark int) {
	for i := len(s.trail) - 1; i >= trailMark; i-- {
		id := s.trail[i]
		for _, ci := range s.watch[id] {
			cl := &s.clauses[ci]
			for k, cid := range cl.ids {
				if cid != id {
					continue
				}
				if s.litTruth(cl.lits[k], id) > 0 {
					s.numTrue[ci]--
				} else {
					s.numFalse[ci]--
				}
			}
		}
		s.val[id] = 0
	}
	s.trail = s.trail[:trailMark]
	s.g.undoTo(edgeMark, piMark)
	s.propQueue = s.propQueue[:0]
}
