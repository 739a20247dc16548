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

// varsOf returns the ids of the variables in e. The id sets are memoised
// eagerly on the hash-consed DAG at intern time (see expr.VarIDs), so
// this is a field read, not a traversal.
func (s *Solver) varsOf(e *expr.Expr) []uint32 { return e.VarIDs() }

// partition groups the constraints into connected components linked by
// shared variables. Constraints without any variable (non-constant-folded
// tautologies cannot occur; guarded anyway) join the first component.
func (s *Solver) partition(constraints []*expr.Expr) [][]*expr.Expr {
	n := len(constraints)
	if n <= 1 {
		return [][]*expr.Expr{constraints}
	}
	// Union-find over constraint indices.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	owner := make(map[uint32]int) // variable id -> first constraint seen
	for i, c := range constraints {
		for _, id := range s.varsOf(c) {
			if j, ok := owner[id]; ok {
				union(i, j)
			} else {
				owner[id] = i
			}
		}
	}
	groups := make(map[int][]*expr.Expr)
	var order []int
	for i, c := range constraints {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], c)
	}
	out := make([][]*expr.Expr, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// checkPartitioned decides the conjunction component by component. Each
// component goes through the full pipeline (fast path, cache, pool, SAT),
// so repeated components — the common case across a run's many queries —
// hit the cache. Returns ok=false when partitioning does not apply
// (single component). Recursion stays on the caller's query context, so
// a speculation worker's components solve on the worker's own slot.
func (s *Solver) checkPartitioned(qc queryCtx, constraints []*expr.Expr) (bool, bool, error) {
	comps := s.partition(constraints)
	if len(comps) <= 1 {
		return false, false, nil
	}
	s.bumpStat(func(st *Stats) { st.Partitions++ })
	for _, comp := range comps {
		sat, err := s.checkQuery(qc, comp, nil)
		if err != nil || !sat {
			return false, true, err
		}
	}
	return true, true, nil
}
