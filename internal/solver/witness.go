package solver

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"sde/internal/expr"
)

// Witnesses: the one path a concrete test case is read from. A witness is
// a function of its constraint set — not of the order the constraints
// arrive in, not of what this solver decided before, not of which goroutine
// asks. Witness therefore touches none of the history-bearing layers: the
// query cache, the counterexample pool, the shared cache and the
// persistent instances are all bypassed; of Options only MaxConflicts
// applies. What it keeps is an exact-key memo of component models: the
// value stored under a key is the one any later solve of that key would
// compute, so a hit is indistinguishable from a miss except in cost.

// witnessEntry is one memoised component. done is closed once sat, model
// and err are final; until then concurrent askers of the key wait on it,
// so a key is solved once however many goroutines want it.
type witnessEntry struct {
	hashes []uint64
	done   chan struct{}
	sat    bool
	model  expr.Env
	err    error
}

// witnessMemo maps a component's key to its entry. It lives on the
// Solver, so it is dropped with the run that filled it.
type witnessMemo struct {
	mu sync.Mutex
	m  map[uint64]*witnessEntry
}

// Witness reports whether the conjunction of the constraints is
// satisfiable and, when it is, returns the canonical model: constants are
// folded, the rest are sorted by structural hash and de-duplicated, split
// into variable-disjoint components, and each component is solved on its
// own — by the literal scan when it is a conjunction of boolean literals,
// otherwise by a from-scratch CDCL run on a fresh instance — and the
// component models are merged. Two calls with the same constraints in any
// order, with any repetitions, on any goroutine, return equal models.
// Variables absent from the model are don't-cares (0 by convention).
//
// The returned Env is the caller's own. ErrBudget is returned when a
// component exhausts Options.MaxConflicts.
func (s *Solver) Witness(constraints []*expr.Expr) (expr.Env, bool, error) {
	s.bumpStat(func(st *Stats) { st.Queries++ })
	active := make([]*expr.Expr, 0, len(constraints))
	for _, c := range constraints {
		if c.Width() != 1 {
			return nil, false, fmt.Errorf("solver: constraint has width %d, want 1", c.Width())
		}
		if c.IsFalse() {
			return nil, false, nil
		}
		if !c.IsTrue() {
			active = append(active, c)
		}
	}
	slices.SortFunc(active, func(a, b *expr.Expr) int { return cmp.Compare(a.Hash(), b.Hash()) })
	active = slices.CompactFunc(active, func(a, b *expr.Expr) bool { return a.Hash() == b.Hash() })

	model := expr.Env{}
	if len(active) == 0 {
		return model, true, nil
	}
	comps := s.partition(active)
	if len(comps) > 1 {
		s.bumpStat(func(st *Stats) { st.Partitions++ })
	}
	for _, comp := range comps {
		sat, m, err := s.witnessComponent(comp)
		if err != nil || !sat {
			return nil, false, err
		}
		for name, v := range m {
			model[name] = v
		}
	}
	return model, true, nil
}

// witnessComponent returns the memoised model of one component, solving it
// if no goroutine has yet. The key is the query cache's — the component's
// sorted hash list — but the memo is its own.
func (s *Solver) witnessComponent(comp []*expr.Expr) (bool, expr.Env, error) {
	key, hashes := queryKey(comp)
	w := &s.witnesses
	w.mu.Lock()
	ent, ok := w.m[key]
	if ok && !slices.Equal(ent.hashes, hashes) {
		// A 64-bit key collision: solve this one unmemoised.
		w.mu.Unlock()
		return s.solveComponent(comp)
	}
	if ok {
		w.mu.Unlock()
		<-ent.done
		return ent.sat, ent.model, ent.err
	}
	ent = &witnessEntry{hashes: hashes, done: make(chan struct{})}
	w.m[key] = ent
	w.mu.Unlock()
	ent.sat, ent.model, ent.err = s.solveComponent(comp)
	close(ent.done)
	return ent.sat, ent.model, ent.err
}

// solveComponent decides one component from scratch.
func (s *Solver) solveComponent(comp []*expr.Expr) (bool, expr.Env, error) {
	if sat, ok := literalVerdict(comp); ok {
		s.bumpStat(func(st *Stats) { st.FastPath++ })
		if !sat {
			return false, nil, nil
		}
		return true, literalModel(comp), nil
	}
	s.bumpStat(func(st *Stats) { st.SATCalls++ })
	return s.solveSAT(comp)
}
