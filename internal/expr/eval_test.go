package expr

import (
	"math"
	"math/rand"
	"testing"
)

// TestEvaluatorReuseMatchesFresh: one Evaluator carried across many
// assignments, expressions and Builders — its memo and bindings never
// cleared, only Reset — returns what a fresh Evaluator returns, and what
// the operators randomExpr chose compute. Each assignment evaluates
// several expressions, so later ones read subterms the earlier ones
// memoised; some leave b unbound, which must read as 0.
func TestEvaluatorReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reused := new(Evaluator)
	pairs := 0
	for round := 0; pairs < 1200; round++ {
		w := []int{1, 7, 16, 32, 64}[round%5]
		bld := NewBuilder()
		for model := 0; model < 8; model++ {
			env := Env{"a": rng.Uint64()}
			bindB := rng.Intn(4) != 0
			if bindB {
				env["b"] = rng.Uint64()
			}
			// randomExpr interns a and b on first use; intern both so
			// their ids exist before binding.
			a, b := bld.Var("a", w), bld.Var("b", w)
			reused.Reset()
			reused.Bind(a.VarID(), env["a"])
			if bindB {
				reused.Bind(b.VarID(), env["b"])
			}
			for k := 0; k < 4; k++ {
				e, want := randomExpr(bld, rng, 4, w, env)
				fresh := new(Evaluator)
				fresh.Reset()
				fresh.Bind(a.VarID(), env["a"])
				if bindB {
					fresh.Bind(b.VarID(), env["b"])
				}
				got, ref := reused.Eval(e), fresh.Eval(e)
				if got != ref || got != want {
					t.Fatalf("round %d model %d: %v under %v: reused %d, fresh %d, want %d", round, model, e, env, got, ref, want)
				}
				pairs++
			}
		}
	}
}

// TestEvaluatorEpochWrap forces the epoch counter round: entries stamped
// in epoch 1 before the wrap must not be read back in the epoch 1 after it.
func TestEvaluatorEpochWrap(t *testing.T) {
	bld := NewBuilder()
	x := bld.Var("x", 8)
	e := bld.Add(x, bld.Const(1, 8))
	ev := new(Evaluator)
	ev.Reset()
	ev.Bind(x.VarID(), 5)
	if got := ev.Eval(e); got != 6 {
		t.Fatalf("x+1 with x=5 = %d, want 6", got)
	}
	if ev.memo.epoch != 1 || ev.vars.epoch != 1 {
		t.Fatalf("epochs %d/%d after the first Reset, want 1", ev.memo.epoch, ev.vars.epoch)
	}
	ev.memo.epoch, ev.vars.epoch = math.MaxUint32, math.MaxUint32
	ev.Reset()
	if ev.memo.epoch != 1 || ev.vars.epoch != 1 {
		t.Fatalf("epochs %d/%d after the wrap, want 1", ev.memo.epoch, ev.vars.epoch)
	}
	if v, ok := ev.Bound(x.VarID()); ok {
		t.Errorf("x still bound to %d after the wrap", v)
	}
	if got := ev.Eval(e); got != 1 {
		t.Errorf("x+1 with x unbound = %d after the wrap, want 1 (a stale memo entry was read)", got)
	}
}
