package solver

import "sde/internal/expr"

// solveIncremental is solveOnSlot with the model as an expr.Env by
// variable name — the form Witness returns and expr.Eval reads — for the
// tests and benchmarks that decide on a persistent instance directly.
func (s *Solver) solveIncremental(slot *solverSlot, active []*expr.Expr) (bool, expr.Env, error) {
	sat, m, err := s.solveOnSlot(slot, active)
	if !sat || err != nil {
		return sat, nil, err
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return true, slot.ic.bl.env(m), nil
}
