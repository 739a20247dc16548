package sim

import (
	"errors"
	"time"

	"sde/internal/expr"
	"sde/internal/solver"
	"sde/internal/vm"
)

// Speculative-fork solver pipeline (engine side). At a symbolic branch the
// VM forks both sides immediately and keeps executing the true side; the
// feasibility queries run on the SpecPool's workers. The engine records
// each speculation as a specEntry and resolves them — strictly in creation
// order — at resolution barriers: before a packet send or assertion (the
// VM calls OnSpecBarrier) and after every activation (runToCompletion).
// Creation-order resolution maintains the invariant that every consumed
// verdict's prefix is already confirmed feasible, which is what makes
// complement elision in the pool sound.
type specEntry struct {
	st  *vm.State
	sib *vm.State // frozen false-side snapshot; nil for assume entries

	task *solver.SpecTask

	// condIdx is the index the provisional constraint was appended at;
	// removedSnap is st.SpecRemovedCount() at submission. Their difference
	// against the current count adjusts condIdx for provisional
	// constraints removed by earlier resolutions.
	condIdx     int
	removedSnap int
}

// OnSpecBranch implements vm.SpecHooks: queue the branch's query pair.
func (h *engineHooks) OnSpecBranch(orig, sib *vm.State, prefix []*expr.Expr, cond, notCond *expr.Expr) {
	e := (*Engine)(h)
	e.specPending = append(e.specPending, specEntry{
		st:          orig,
		sib:         sib,
		task:        e.specPool.SubmitPair(prefix, cond, notCond),
		condIdx:     len(prefix),
		removedSnap: orig.SpecRemovedCount(),
	})
}

// OnSpecAssume implements vm.SpecHooks: queue the assume's single query.
func (h *engineHooks) OnSpecAssume(s *vm.State, prefix []*expr.Expr, cond *expr.Expr) {
	e := (*Engine)(h)
	e.specPending = append(e.specPending, specEntry{
		st:          s,
		task:        e.specPool.SubmitOne(prefix, cond),
		condIdx:     len(prefix),
		removedSnap: s.SpecRemovedCount(),
	})
}

// OnSpecBarrier implements vm.SpecHooks: the state is about to execute an
// externally observable instruction; resolve everything first.
func (h *engineHooks) OnSpecBarrier(s *vm.State) {
	(*Engine)(h).drainSpec()
}

// drainSpec resolves every pending speculation in creation order.
func (e *Engine) drainSpec() {
	if len(e.specPending) == 0 {
		return
	}
	start := time.Now()
	e.own.Spec.Barriers++
	for len(e.specPending) > 0 {
		ent := e.specPending[0]
		e.specPending = e.specPending[1:]
		e.resolveSpec(ent)
	}
	e.own.Spec.BarrierWaitNs += time.Since(start).Nanoseconds()
}

// discardSpecRest abandons every still-pending speculation: the state was
// killed or rewound, so the remaining entries describe a path that no
// longer exists. Their tasks are canceled (a worker that has not started
// skips the solve) and their snapshots released.
func (e *Engine) discardSpecRest() {
	for _, ent := range e.specPending {
		ent.task.Cancel()
		if ent.sib != nil {
			ent.sib.Release()
		}
	}
	e.specPending = e.specPending[:0]
}

// resolveSpec consumes one verdict and replays exactly what the
// synchronous branch/assume code would have done with it.
func (e *Engine) resolveSpec(ent specEntry) {
	s := ent.st
	ent.task.Wait()
	satT, errT := ent.task.SatTrue()

	if ent.sib == nil { // assume
		switch {
		case errT != nil:
			s.Kill(errT)
			e.own.Spec.SpecKills++
			e.discardSpecRest()
		case !satT:
			s.Kill(errors.New("vm: infeasible assume"))
			e.own.Spec.SpecKills++
			e.discardSpecRest()
		}
		return
	}

	sib := ent.sib
	satF, errF := ent.task.SatFalse()
	switch {
	case errT != nil:
		sib.Release()
		s.Kill(errT)
		e.own.Spec.SpecKills++
		e.discardSpecRest()
	case satT && errF != nil:
		sib.Release()
		s.Kill(errF)
		e.own.Spec.SpecKills++
		e.discardSpecRest()
	case satT && satF:
		// Both feasible: materialize the sibling exactly as OnFork would
		// have — same id, same mapper notification, same LIFO position.
		sib.AdoptFreshID()
		e.onLocalBranch(s, sib)
		e.adopt([]*vm.State{sib})
		e.runnable = append(e.runnable, sib)
	case satT:
		// True side only: a synchronous run takes the branch without
		// recording the (implied) condition. Remove the provisional
		// constraint from the speculating state and from every pending
		// sibling snapshot, which carries its own copy of it.
		idx := ent.condIdx - (s.SpecRemovedCount() - ent.removedSnap)
		s.RemoveConstraintAt(idx)
		for _, rest := range e.specPending {
			if rest.sib != nil {
				rest.sib.RemoveConstraintAt(idx)
			}
		}
		e.own.Spec.Removed++
		sib.Release()
	default:
		// True side infeasible: the speculative execution since this
		// branch was down a path that does not exist. Rewind onto the
		// frozen snapshot's machine state; the path condition keeps only
		// the confirmed prefix (a synchronous one-sided-false branch adds
		// no constraint). Everything speculated after this point is moot.
		keep := ent.condIdx - (s.SpecRemovedCount() - ent.removedSnap)
		s.RestoreFromSpec(sib, keep)
		e.own.Spec.Rewinds++
		e.discardSpecRest()
	}
}

// closeSpecPool shuts the solver workers down; idempotent.
func (e *Engine) closeSpecPool() {
	if e.specPool != nil {
		e.discardSpecRest()
		e.specPool.Close()
	}
}
