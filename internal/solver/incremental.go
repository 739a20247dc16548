package solver

import "sde/internal/expr"

// incContext is the persistent incremental solving context of one slot:
// a long-lived satSolver + blaster pair shared by every SAT-core query the
// slot decides. Each expression DAG node is Tseitin-encoded once per slot
// rather than once per query, and learned clauses, variable activities,
// and saved phases survive between queries.
//
// Path constraints are never asserted as unit clauses on this instance —
// each constraint is encoded once and its output literal is passed to
// solveUnder as an assumption, which keeps the instance reusable for any
// constraint subset. Because the instance only ever contains gate
// definitions (satisfiable by construction) and clauses learned from
// them, a valFalse answer always means "UNSAT under the assumptions",
// never a poisoned instance — and a solve may search only the fan-in cone
// of its assumptions (satSolver.restrictTo), however much else the slot
// has encoded.
type incContext struct {
	sat       *satSolver
	bl        *blaster
	gatesSeen int64 // blaster gate count already flushed into Stats.Gates
}

// solveOnSlot decides active — the constant-folded constraint set of one
// query — on slot's persistent instance, passing each constraint's output
// literal as an assumption. All encoding happens at decision level 0 — the
// instance is backtracked before any blasting — so new gate clauses and
// their unit consequences are installed as permanent level-0 facts.
//
// Each slot owns a private CDCL instance and blast memo, so concurrent
// solves on distinct slots never contend here. A constraint the slot has
// met before costs one memo lookup (counted in Stats.EncodeSkips); nothing
// per query or per execution state is kept beside the slot.
func (s *Solver) solveOnSlot(slot *solverSlot, active []*expr.Expr) (bool, poolModel, error) {
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.ic == nil {
		sat := newSatSolver()
		slot.ic = &incContext{sat: sat, bl: newBlaster(sat)}
	}
	ic := slot.ic
	ic.sat.maxConfl = s.opts.MaxConflicts
	ic.sat.backtrackTo(0)

	assumptions := make([]Lit, 0, len(active))
	var skips int64
	for _, c := range active {
		if _, ok := ic.bl.memo[c]; ok {
			skips++
		}
		assumptions = append(assumptions, ic.bl.encode(c)[0])
	}

	confl0, dec0 := ic.sat.conflicts, ic.sat.decisions
	ic.sat.restrictTo(assumptions)
	res := ic.sat.solveUnder(assumptions)
	mainSlot := slot == &s.slot0
	s.bumpStat(func(st *Stats) {
		st.Conflicts += ic.sat.conflicts - confl0
		st.Decisions += ic.sat.decisions - dec0
		st.Gates += ic.bl.gates - ic.gatesSeen
		st.EncodeSkips += skips
		if mainSlot {
			st.LearnedRetained = ic.sat.learned
		}
	})
	ic.gatesSeen = ic.bl.gates

	switch res {
	case valFalse:
		ic.sat.release()
		return false, nil, nil
	case valUnassigned:
		ic.sat.release()
		return false, nil, ErrBudget
	}
	// SAT: read back a model for exactly the query's variables — the union
	// of the constraints' VarIDs — before releasing the trail. Variables
	// outside the query stay don't-cares, matching from-scratch solving
	// (unbound variables evaluate to 0). The
	// query's value is a function of its cone, which is fully assigned; a
	// bit outside the cone (one no gate of the query reads) is a don't-care
	// too, whatever the trail holds for it.
	model := ic.bl.readModel(active)
	ic.sat.release()
	return true, model, nil
}
