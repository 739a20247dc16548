package solver

import (
	"sde/internal/expr"
)

// Constraint-set partitioning: constraints that share no symbolic
// variables are independent, so a conjunction splits into connected
// components that can be decided (and cached) separately; Witness merges
// their models. This mirrors KLEE's independent-constraint optimisation
// and pays off heavily on distributed test-case queries, which union the
// path conditions of k nodes whose decisions are largely disjoint.

// partition groups the constraints into connected components linked by
// shared variables (expr.Components), in order of each component's first
// constraint. A constraint without variables (constant folding removes
// them first; guarded anyway) is a component of its own.
func (s *Solver) partition(constraints []*expr.Expr) [][]*expr.Expr {
	if len(constraints) <= 1 {
		return [][]*expr.Expr{constraints}
	}
	var out [][]*expr.Expr
	for i, l := range expr.Components(constraints) {
		if l == len(out) {
			out = append(out, nil)
		}
		out[l] = append(out[l], constraints[i])
	}
	return out
}

// checkPartitioned decides the conjunction component by component. Each
// component goes through the full pipeline (fast path, cache, pool, SAT),
// so repeated components — the common case across a run's many queries —
// hit the cache. Returns ok=false when partitioning does not apply
// (single component). Recursion stays on the caller's slot, so
// a speculation worker's components solve on the worker's own slot.
func (s *Solver) checkPartitioned(slot *solverSlot, constraints []*expr.Expr) (bool, bool, error) {
	comps := s.partition(constraints)
	if len(comps) <= 1 {
		return false, false, nil
	}
	s.bumpStat(func(st *Stats) { st.Partitions++ })
	for _, comp := range comps {
		sat, err := s.checkQuery(slot, comp, nil)
		if err != nil || !sat {
			return false, true, err
		}
	}
	return true, true, nil
}
