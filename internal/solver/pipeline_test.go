package solver_test

import (
	"testing"

	"sde/internal/expr"
	"sde/internal/vm"
)

// TestWorkerVerdictServesSlotZero: the speculation workers and the
// interpreter thread take one pipeline, so a query a worker slot decided is
// an exact-cache hit when slot 0 asks it — same key, no second SAT call.
// The solver is the one every run gets (vm.NewContext), and the query holds
// a power-of-two multiply, the shape an algebraic rewrite in front of slot
// 0 alone would re-key.
func TestWorkerVerdictServesSlotZero(t *testing.T) {
	ctx := vm.NewContext()
	s, b := ctx.Solver, ctx.Exprs
	x := b.Var("x", 16)
	x4 := b.Mul(x, b.Const(4, 16))
	prefix := []*expr.Expr{b.Ult(x4, b.Const(400, 16))}
	extra := b.Ne(x4, b.Const(0, 16))

	if sat, err := s.FeasibleOn(s.NewWorkerSlot(), prefix, extra); err != nil || !sat {
		t.Fatalf("worker slot: sat=%v err=%v, want SAT", sat, err)
	}
	before := s.Stats()
	if before.SATCalls != 1 {
		t.Fatalf("worker slot made %d SAT calls, want 1", before.SATCalls)
	}
	if sat, err := s.FeasibleWith(nil, prefix, extra); err != nil || !sat {
		t.Fatalf("slot 0: sat=%v err=%v, want SAT", sat, err)
	}
	after := s.Stats()
	if d := after.CacheHits - before.CacheHits; d != 1 {
		t.Errorf("slot 0 took %d exact-cache hits, want 1", d)
	}
	if after.SATCalls != before.SATCalls {
		t.Errorf("slot 0 made %d SAT calls, want none", after.SATCalls-before.SATCalls)
	}
}
