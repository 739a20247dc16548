package qopt

import (
	"testing"

	"sde/internal/expr"
)

func TestSliceKeepsConnectedComponent(t *testing.T) {
	eb := expr.NewBuilder()
	x := eb.Var("x", 8)
	y := eb.Var("y", 8)
	z := eb.Var("z", 8)
	d0 := eb.Var("d0", 1)
	cs := []*expr.Expr{
		eb.Ult(x, eb.Const(10, 8)), // connected to query via x
		eb.Ult(y, eb.Const(20, 8)), // connected to x through the next one
		eb.Ult(eb.Add(x, y), eb.Const(30, 8)),
		eb.Eq(z, eb.Const(3, 8)), // independent factor
		d0,                       // independent singleton factor
	}
	o := New(eb)
	query := eb.Ult(eb.Const(5, 8), x)
	kept, dropped := o.Slice(cs, query)
	if len(kept) != 3 {
		t.Fatalf("kept %d constraints, want 3: %v", len(kept), kept)
	}
	for i, c := range cs[:3] {
		if kept[i] != c {
			t.Fatalf("kept[%d] = %v, want input order preserved", i, kept[i])
		}
	}
	if len(dropped) != 2 {
		t.Fatalf("dropped %d groups, want 2", len(dropped))
	}
}

func TestSliceAllConnected(t *testing.T) {
	eb := expr.NewBuilder()
	x := eb.Var("x", 8)
	cs := []*expr.Expr{eb.Ult(x, eb.Const(10, 8)), eb.Ult(eb.Const(2, 8), x)}
	o := New(eb)
	kept, dropped := o.Slice(cs, eb.Eq(x, eb.Const(5, 8)))
	if len(kept) != 2 || dropped != nil {
		t.Fatalf("kept=%d dropped=%d, want 2/none", len(kept), len(dropped))
	}
}

func TestRewriteStrengthReduction(t *testing.T) {
	eb := expr.NewBuilder()
	o := New(eb)
	x := eb.Var("x", 12)
	cases := []struct{ in, want *expr.Expr }{
		{eb.Ult(eb.Mul(x, eb.Const(8, 12)), eb.Const(100, 12)),
			eb.Ult(eb.Shl(x, eb.Const(3, 12)), eb.Const(100, 12))},
		{eb.Eq(eb.UDiv(x, eb.Const(4, 12)), eb.Const(1, 12)),
			eb.Eq(eb.Const(1, 12), eb.LShr(x, eb.Const(2, 12)))},
		{eb.Eq(eb.URem(x, eb.Const(16, 12)), eb.Const(0, 12)),
			eb.Eq(eb.Const(0, 12), eb.And(x, eb.Const(15, 12)))},
		{eb.Not(eb.Ult(x, eb.Const(7, 12))),
			eb.Ule(eb.Const(7, 12), x)},
		{eb.Ult(x, eb.Const(1, 12)),
			eb.Eq(eb.Const(0, 12), x)},
		{eb.Eq(eb.Add(x, eb.Const(5, 12)), eb.Const(9, 12)),
			eb.Eq(eb.Const(4, 12), x)},
	}
	for i, c := range cases {
		if got := o.Rewrite(c.in); got != c.want {
			t.Errorf("case %d: Rewrite(%v) = %v, want %v", i, c.in, got, c.want)
		}
	}
	if o.RewriteHits() == 0 {
		t.Error("RewriteHits not counted")
	}
	if o.GatesElided() == 0 {
		t.Error("GatesElided not counted")
	}
}

func TestRewriteFixpointMemo(t *testing.T) {
	eb := expr.NewBuilder()
	o := New(eb)
	x := eb.Var("x", 8)
	c := eb.Not(eb.Ule(eb.Mul(x, eb.Const(4, 8)), eb.Const(40, 8)))
	first := o.Rewrite(c)
	want := eb.Ult(eb.Const(40, 8), eb.Shl(x, eb.Const(2, 8)))
	if first != want {
		t.Fatalf("Rewrite = %v, want %v", first, want)
	}
	hits := o.RewriteHits()
	if got := o.Rewrite(c); got != first {
		t.Fatalf("memoised Rewrite diverged: %v", got)
	}
	if o.RewriteHits() != hits {
		t.Fatalf("memoised Rewrite recounted a hit")
	}
	// A rewritten constraint is its own fixpoint.
	if got := o.Rewrite(first); got != first {
		t.Fatalf("Rewrite not idempotent: %v", got)
	}
}

func TestImpliedBinding(t *testing.T) {
	eb := expr.NewBuilder()
	x := eb.Var("x", 8)
	d := eb.Var("d", 1)
	if v, val, ok := ImpliedBinding(eb.Eq(x, eb.Const(7, 8))); !ok || v != x || val != 7 {
		t.Fatalf("Eq binding: %v %d %v", v, val, ok)
	}
	if v, val, ok := ImpliedBinding(d); !ok || v != d || val != 1 {
		t.Fatalf("bare bool binding: %v %d %v", v, val, ok)
	}
	if v, val, ok := ImpliedBinding(eb.Not(d)); !ok || v != d || val != 0 {
		t.Fatalf("negated bool binding: %v %d %v", v, val, ok)
	}
	if _, _, ok := ImpliedBinding(eb.Ult(x, eb.Const(3, 8))); ok {
		t.Fatal("Ult is not a binding")
	}
}

func TestOptimizeSetSubstitution(t *testing.T) {
	eb := expr.NewBuilder()
	o := New(eb)
	x := eb.Var("x", 8)
	y := eb.Var("y", 8)
	def := eb.Eq(x, eb.Const(3, 8))
	use := eb.Ult(eb.Add(x, y), eb.Const(10, 8))
	out, unsat := o.OptimizeSet([]*expr.Expr{def, use})
	if unsat {
		t.Fatal("x==3 ∧ x+y<10 reported unsat")
	}
	// The defining constraint stays; the use site sees x=3.
	wantUse := eb.Ult(eb.Add(eb.Const(3, 8), y), eb.Const(10, 8))
	wantUse = o.Rewrite(wantUse)
	if len(out) != 2 || out[0] != o.Rewrite(def) || out[1] != wantUse {
		t.Fatalf("OptimizeSet = %v, want [%v %v]", out, o.Rewrite(def), wantUse)
	}
}

func TestOptimizeSetDetectsUnsat(t *testing.T) {
	eb := expr.NewBuilder()
	o := New(eb)
	x := eb.Var("x", 8)
	cs := []*expr.Expr{
		eb.Eq(x, eb.Const(3, 8)),
		eb.Ult(x, eb.Const(2, 8)), // x=3 makes this false
	}
	if _, unsat := o.OptimizeSet(cs); !unsat {
		t.Fatal("substitution should expose the contradiction")
	}
}

func TestOptimizeSetKeepsDefiningConstraint(t *testing.T) {
	// A defining constraint must not be substituted into itself: the set
	// {x==3} must stay {x==3}, not become {}.
	eb := expr.NewBuilder()
	o := New(eb)
	x := eb.Var("x", 8)
	def := eb.Eq(x, eb.Const(3, 8))
	out, unsat := o.OptimizeSet([]*expr.Expr{def})
	if unsat || len(out) != 1 || out[0] != def {
		t.Fatalf("OptimizeSet({x==3}) = %v (unsat=%v), want unchanged", out, unsat)
	}
}

func TestNodeCount(t *testing.T) {
	eb := expr.NewBuilder()
	o := New(eb)
	x := eb.Var("x", 8)
	// Ult(Add(x, 1), 5): Ult, Add, x, 1, 5 — five distinct nodes.
	c := eb.Ult(eb.Add(x, eb.Const(1, 8)), eb.Const(5, 8))
	if n := o.NodeCount(c); n != 5 {
		t.Fatalf("NodeCount = %d, want 5", n)
	}
}
