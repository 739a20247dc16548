package vm

import (
	"errors"
	"time"

	"sde/internal/expr"
	"sde/internal/metrics"
)

// Speculative forking (Context.Speculate). At a symbolic branch the state
// forks a frozen false-side snapshot and runs on down the true side without
// asking the solver; at an assume it appends the constraint and runs on.
// Each such decision is a pending entry on the Context. Run resolves the
// entries on ctx.Solver, strictly in creation order, at a resolution barrier
// — before an OpSend or OpAssert, whose effects leave the state — and before
// it returns. Each verdict is turned into what a synchronous run would have
// done with it: a both-sides branch becomes the fork a synchronous branch
// makes (same id, same Hooks.OnFork call, same order), a one-sided-true
// branch loses its provisional constraint, an infeasible true side rewinds
// the state onto the snapshot and runs it again, and an infeasible assume
// kills the state. Resolving in creation order means every verdict is read
// with its prefix already confirmed feasible, which makes complement elision
// sound: when prefix ∧ cond is UNSAT, prefix ∧ ¬cond is SAT and is not asked.
//
// Speculation changes no state, fork, dscenario or digest. It does change
// the instruction count, which includes what ran on a path later rewound.

// specEntry is one unresolved speculation of the running state.
type specEntry struct {
	prefix        []*expr.Expr // the path condition before the decision
	cond, notCond *expr.Expr   // notCond is nil for an assume
	sib           *State       // frozen false side; nil for an assume
	at            int          // Run's budget position at the branch
}

// SpecStats returns the speculation counters: the Spec part of the run's
// metrics.RunStats. All zero unless Speculate is set.
func (c *Context) SpecStats() metrics.SpecStats { return c.specStats }

// specBranch forks a symbolic branch speculatively: the sibling freezes the
// false side, the state takes the true side, and both constraints are
// recorded as a synchronous both-sides fork records them. at is the budget
// position of the branch instruction, which a rewind returns to.
func (s *State) specBranch(cond *expr.Expr, target, at int) {
	c := s.ctx
	notCond := c.Exprs.Not(cond)
	sib := s.fork()
	c.pending = append(c.pending, specEntry{prefix: s.pathCond, cond: cond, notCond: notCond, sib: sib, at: at})
	s.AddConstraint(cond)
	s.pc = target
	sib.AddConstraint(notCond)
	sib.pc++
	c.specStats.Submitted++
	c.specStats.Pairs++
}

// specAssume applies an assume speculatively: the constraint is appended
// provisionally, and an UNSAT verdict kills the state at resolution.
func (s *State) specAssume(cond *expr.Expr) {
	c := s.ctx
	c.pending = append(c.pending, specEntry{prefix: s.pathCond, cond: cond})
	s.AddConstraint(cond)
	s.pc++
	c.specStats.Submitted++
	c.specStats.Assumes++
}

// resolveSpec decides every pending entry of s in creation order and
// empties the list. The state comes back confirmed, dead, or rewound onto a
// false side; rewound reports the last, with at the budget position of the
// branch it was rewound to. Entries after a kill or a rewind describe a path
// that no longer exists and are dropped unsolved.
func (s *State) resolveSpec(h Hooks) (at int, rewound bool) {
	c := s.ctx
	st := &c.specStats
	start := time.Now()
	st.Barriers++
	st.InflightPeak = max(st.InflightPeak, int64(len(c.pending)))
	removed := 0 // provisional constraints removed so far in this drain
	done := false
	for i := range c.pending {
		e := &c.pending[i]
		if done {
			if e.sib != nil {
				e.sib.Release()
			}
			continue
		}
		satT, err := c.Solver.FeasibleWith(nil, e.prefix, e.cond)
		st.Solves++
		satF := true
		if err == nil && e.sib != nil {
			if satT {
				satF, err = c.Solver.FeasibleWith(nil, e.prefix, e.notCond)
				st.Solves++
			} else {
				st.Elided++
			}
		}
		switch {
		case err != nil || (e.sib == nil && !satT):
			if err == nil {
				err = errors.New("vm: infeasible assume")
			}
			if e.sib != nil {
				e.sib.Release()
			}
			s.Kill(err)
			st.SpecKills++
			done = true
		case e.sib == nil:
			// A feasible assume keeps its constraint.
		case satT && satF:
			e.sib.adoptFreshID()
			h.OnFork(s, e.sib)
			s.own()
		case satT:
			// A synchronous one-sided-true branch records no constraint.
			// Later siblings carry their own copy of this one.
			idx := len(e.prefix) - removed
			s.removeConstraintAt(idx)
			for _, rest := range c.pending[i+1:] {
				if rest.sib != nil {
					rest.sib.removeConstraintAt(idx)
				}
			}
			removed++
			st.Removed++
			e.sib.Release()
		default:
			// The true side is infeasible: everything run since the
			// branch was on a path that does not exist.
			s.restoreFrom(e.sib, len(e.prefix)-removed)
			st.Rewinds++
			at, rewound, done = e.at, true, true
		}
	}
	clear(c.pending)
	c.pending = c.pending[:0]
	st.BarrierWaitNs += time.Since(start).Nanoseconds()
	return at, rewound
}

// adoptFreshID turns a snapshot into a real forked state, drawing the fork
// counter and id a synchronous Fork at the same point would have drawn:
// resolution runs in branch creation order, so the id stream is a
// synchronous run's.
func (s *State) adoptFreshID() {
	s.ctx.forkCount.Add(1)
	s.id = s.ctx.newStateID()
}

// removeConstraintAt deletes the constraint at index idx from the path
// condition into a fresh slice: pending prefixes and forks still view the
// old array.
func (s *State) removeConstraintAt(idx int) {
	s.own()
	n := make([]*expr.Expr, 0, len(s.pathCond)-1)
	n = append(n, s.pathCond[:idx]...)
	s.pathCond = append(n, s.pathCond[idx+1:]...)
}

// restoreFrom rewinds the state onto the frozen snapshot sib, which it
// consumes: machine state, events, history and trace come from sib's body,
// which the state takes over, so it resumes at the branch's fall-through as
// a synchronous one-sided-false branch would. The path condition keeps the
// first keep constraints of the state's own — the confirmed prefix, which
// reflects removals sib's copy predates — capped, so the next append does
// not write over what a fork made on the abandoned path still views. The
// state keeps its identity; its old body goes to whatever forks still share
// it.
func (s *State) restoreFrom(sib *State, keep int) {
	pathCond := s.pathCond[:keep:keep]
	s.Release()
	s.body, sib.body = sib.body, nil
	s.own()
	s.status = StatusRunning
	s.runErr = nil
	s.pathCond = pathCond
}
