// Package qopt is the stub of the deleted query optimizer (independence
// slicing, algebraic rewriting, implied-value concretization). No layer of
// the engine calls it: every feasibility query takes the solver's one
// pipeline. It stays only because bench/layers.go — which only a benchmark
// change may edit — compiles against New, Slice, OptimizeSet and
// solver.Options.Optimizer. Once that stops, delete the package.
package qopt

import "sde/internal/expr"

// Optimizer is inert; New returns nil and every method is the identity.
type Optimizer struct{}

// New returns nil: there is no optimizer.
func New(*expr.Builder) *Optimizer { return nil }

// Slice keeps every constraint and drops none.
func (*Optimizer) Slice(cs []*expr.Expr, _ *expr.Expr) (kept, dropped []*expr.Expr) {
	return cs, nil
}

// OptimizeSet returns the constraints unchanged and never reports UNSAT.
func (*Optimizer) OptimizeSet(cs []*expr.Expr) ([]*expr.Expr, bool) { return cs, false }
