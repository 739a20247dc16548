package vm

import (
	"sde/internal/expr"
)

// Speculative-fork support: at a symbolic branch (or assume) the VM can
// fork both sides immediately, submit the feasibility queries to an
// asynchronous solver pipeline via SpecHooks, and keep executing the true
// side speculatively. The driver resolves the pending verdicts at
// resolution barriers (packet sends, asserts, end of activation) and uses
// the State methods below to reconcile the speculative execution with the
// verdicts: materialize the sibling, drop a provisional constraint, or
// rewind the state onto the frozen false-side snapshot.

// SpecHooks receives speculative branch decisions. It is implemented by
// the distributed engine; when unset (SetSpecHooks never called) the VM
// resolves every branch synchronously.
type SpecHooks interface {
	// OnSpecBranch is called after the VM forked a symbolic branch
	// speculatively: orig has taken the true side (cond appended to its
	// path condition), sib is the frozen false-side snapshot (notCond
	// appended, fall-through pc, no state id yet). prefix is the shared
	// path condition as of the branch, before either constraint.
	OnSpecBranch(orig, sib *State, prefix []*expr.Expr, cond, notCond *expr.Expr)
	// OnSpecAssume is called after the VM applied an assume
	// speculatively: cond is already appended to s's path condition,
	// prefix is the path condition before it.
	OnSpecAssume(s *State, prefix []*expr.Expr, cond *expr.Expr)
	// OnSpecBarrier is called before an instruction whose effects are
	// observable outside the state (OpSend, OpAssert). The driver must
	// resolve every pending verdict of s before returning: afterwards s
	// is either confirmed (all provisional constraints final), rewound
	// (SpecRewound reports true), or dead.
	OnSpecBarrier(s *State)
}

// SetSpecHooks installs the speculative-fork driver. Passing nil restores
// synchronous branch resolution.
func (c *Context) SetSpecHooks(h SpecHooks) { c.spec = h }

// SpecFork copies the state exactly like Fork but allocates no state id
// and counts no fork: the copy is a frozen speculative snapshot. The
// driver later either materializes it with AdoptFreshID (both sides
// feasible) or consumes it as a rewind target (true side infeasible); in
// the remaining cases it must be Released.
//
// A fork allocates the state, its page table and its event queue, and
// shares the rest of its parent's past. The copy's path condition, history
// and trace are views of the parent's arrays cut to their length, capacity
// included: the lists only ever grow by append (RemoveConstraintAt and
// RestoreFromSpec install fresh slices), so the one holder that can append
// in place is the one that had spare capacity before the fork, and it writes
// beyond every other holder's length — the aliasing the speculation workers'
// prefix snapshots already rely on. The call stack is copied: BeginEvent,
// StartCall and Reboot cut it to [:0] and append, which would overwrite a
// sharer's frames.
func (s *State) SpecFork() *State {
	n := &State{
		ctx:      s.ctx,
		prog:     s.prog,
		node:     s.node,
		regs:     s.regs,
		mem:      s.mem.clone(),
		frames:   append([]frame(nil), s.frames...),
		fn:       s.fn,
		pc:       s.pc,
		status:   s.status,
		pathCond: s.pathCond[:len(s.pathCond):len(s.pathCond)],
		eventSeq: s.eventSeq,
		hist:     s.hist[:len(s.hist):len(s.hist)],
		trace:    s.trace[:len(s.trace):len(s.trace)],
		sendSeq:  s.sendSeq,
		recvSeq:  s.recvSeq,
		symSeq:   s.symSeq,
		steps:    s.steps,
	}
	if len(s.events) > 0 {
		// Payload slices stay shared with the parent's events; nothing
		// writes through them.
		n.events = make([]Event, len(s.events))
		copy(n.events, s.events)
	}
	return n
}

// AdoptFreshID turns a speculative snapshot into a real forked state,
// drawing the same fork counter and id a synchronous Fork at the same
// point would have drawn — resolution happens in branch creation order,
// so the id stream is identical to a non-speculative run's.
func (s *State) AdoptFreshID() {
	s.ctx.forkCount.Add(1)
	s.id = s.ctx.newStateID()
}

// RemoveConstraintAt deletes the provisional constraint at index idx from
// the path condition: the branch turned out one-sided-true, and a
// synchronous run would never have added it. The slice is rebuilt, never
// edited in place — solver workers still hold prefix snapshots aliasing
// the old backing array.
func (s *State) RemoveConstraintAt(idx int) {
	n := make([]*expr.Expr, 0, len(s.pathCond)-1)
	n = append(n, s.pathCond[:idx]...)
	n = append(n, s.pathCond[idx+1:]...)
	s.pathCond = n
	s.specRemoved++
}

// SpecRemovedCount returns how many provisional constraints have been
// removed from this state's path condition so far. The driver snapshots
// it at submission time to adjust recorded constraint indices.
func (s *State) SpecRemovedCount() int { return s.specRemoved }

// RestoreFromSpec rewinds the state onto the frozen snapshot sib: the
// speculatively executed true side turned out infeasible, so the state
// resumes from the branch's fall-through exactly as a synchronous
// one-sided-false branch would have. Machine state (registers, memory,
// control, events, history) comes from the snapshot; the path condition
// keeps the first keep constraints of the state's own current condition —
// the confirmed prefix, which already reflects removals the snapshot's
// copy predates (a one-sided-false branch records no constraint of its
// own). The prefix is copied into a fresh slice so solver workers still
// scanning abandoned prefix snapshots never observe later appends. The
// state keeps its identity and is marked rewound so the driver re-runs
// it. sib is consumed.
func (s *State) RestoreFromSpec(sib *State, keep int) {
	s.mem.release()
	s.regs = sib.regs
	s.mem = sib.mem
	s.frames = sib.frames
	s.fn, s.pc = sib.fn, sib.pc
	s.status = StatusRunning
	s.runErr = nil
	s.pathCond = append([]*expr.Expr(nil), s.pathCond[:keep]...)
	s.events = sib.events
	s.eventSeq = sib.eventSeq
	s.hist = sib.hist
	s.trace = sib.trace
	s.sendSeq = sib.sendSeq
	s.recvSeq = sib.recvSeq
	s.symSeq = sib.symSeq
	s.steps = sib.steps
	s.specRewound = true
}

// SpecRewound reports whether the state was rewound by RestoreFromSpec
// and must be re-run.
func (s *State) SpecRewound() bool { return s.specRewound }

// ClearSpecRewound acknowledges a rewind before re-running the state.
func (s *State) ClearSpecRewound() { s.specRewound = false }

// specBranch forks a symbolic branch speculatively: the sibling freezes
// the false side, the state takes the true side, and both feasibility
// queries go to the asynchronous pipeline. Constraint bookkeeping matches
// the both-feasible synchronous case; the driver repairs the path
// condition at resolution if the branch turns out one-sided.
func (s *State) specBranch(sp SpecHooks, cond *expr.Expr, target int) {
	notCond := s.ctx.Exprs.Not(cond)
	prefix := s.pathCond
	sib := s.SpecFork()
	sib.AddConstraint(notCond)
	sib.pc++
	s.AddConstraint(cond)
	s.pc = target
	sp.OnSpecBranch(s, sib, prefix, cond, notCond)
}

// specAssume applies an assume speculatively: the constraint is appended
// provisionally and the feasibility query goes to the pipeline; an UNSAT
// verdict kills the state at resolution, exactly where a synchronous run
// would have killed it.
func (s *State) specAssume(sp SpecHooks, cond *expr.Expr) {
	prefix := s.pathCond
	s.AddConstraint(cond)
	s.pc++
	sp.OnSpecAssume(s, prefix, cond)
}
