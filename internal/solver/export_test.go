package solver

import "sde/internal/expr"

// solveIncremental is solveOnInstance with the model as an expr.Env by
// variable name — the form Witness returns and expr.Eval reads — for the
// tests and benchmarks that decide on the persistent instance directly.
func (s *Solver) solveIncremental(active []*expr.Expr) (bool, expr.Env, error) {
	sat, m, err := s.solveOnInstance(active)
	if !sat || err != nil {
		return sat, nil, err
	}
	s.incMu.Lock()
	defer s.incMu.Unlock()
	return true, s.inc.bl.env(m), nil
}
