package solver

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sde/internal/expr"
)

// satisfies reports whether env makes every constraint true, by expr.Eval:
// the tests' oracle for a returned model.
func satisfies(env expr.Env, constraints []*expr.Expr) bool {
	for _, c := range constraints {
		if expr.Eval(c, env) == 0 {
			return false
		}
	}
	return true
}

func feasible(t *testing.T, s *Solver, cs []*expr.Expr) bool {
	t.Helper()
	ok, err := s.Feasible(cs)
	if err != nil {
		t.Fatalf("Feasible: %v", err)
	}
	return ok
}

func TestEmptyQueryIsSat(t *testing.T) {
	s := New()
	if !feasible(t, s, nil) {
		t.Error("empty constraint set should be SAT")
	}
}

func TestConstantConstraints(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	if !feasible(t, s, []*expr.Expr{b.True(), b.True()}) {
		t.Error("true ∧ true should be SAT")
	}
	if feasible(t, s, []*expr.Expr{b.True(), b.False()}) {
		t.Error("true ∧ false should be UNSAT")
	}
}

func TestSimpleRange(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	x := b.Var("x", 32)
	// x != 0 ∧ x < 50 ∧ x > 10  (Figure 1, path 2)
	cs := []*expr.Expr{
		b.Ne(x, b.Const(0, 32)),
		b.Ult(x, b.Const(50, 32)),
		b.Ult(b.Const(10, 32), x),
	}
	model, sat, err := s.Witness(cs)
	if err != nil || !sat {
		t.Fatalf("range query: sat=%v err=%v", sat, err)
	}
	v := model["x"]
	if v == 0 || v >= 50 || v <= 10 {
		t.Errorf("model x=%d violates 10 < x < 50, x != 0", v)
	}
}

func TestUnsatRange(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	x := b.Var("x", 8)
	cs := []*expr.Expr{
		b.Ult(x, b.Const(5, 8)),
		b.Ult(b.Const(10, 8), x),
	}
	if feasible(t, s, cs) {
		t.Error("x < 5 ∧ x > 10 should be UNSAT")
	}
}

func TestArithmeticModel(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	x := b.Var("x", 16)
	y := b.Var("y", 16)
	// x * y == 391 (17 * 23), x > 1, y > 1, x < y: forces the factorisation.
	cs := []*expr.Expr{
		b.Eq(b.Mul(x, y), b.Const(391, 16)),
		b.Ult(b.Const(1, 16), x),
		b.Ult(b.Const(1, 16), y),
		b.Ult(x, y),
		b.Ult(y, b.Const(30, 16)),
	}
	model, sat, err := s.Witness(cs)
	if err != nil || !sat {
		t.Fatalf("factorisation: sat=%v err=%v", sat, err)
	}
	if model["x"] != 17 || model["y"] != 23 {
		t.Errorf("model = (%d, %d), want (17, 23)", model["x"], model["y"])
	}
}

func TestDivisionSemantics(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	x := b.Var("x", 8)
	// SMT-LIB: x / 0 == 0xff must be valid (its negation UNSAT).
	cs := []*expr.Expr{
		b.Ne(b.UDiv(x, b.Const(0, 8)), b.Const(0xff, 8)),
	}
	if feasible(t, s, cs) {
		t.Error("x/0 != 0xff should be UNSAT under SMT-LIB semantics")
	}
	// x % 0 == x must be valid.
	cs = []*expr.Expr{
		b.Ne(b.URem(x, b.Const(0, 8)), x),
	}
	if feasible(t, s, cs) {
		t.Error("x%0 != x should be UNSAT under SMT-LIB semantics")
	}
}

func TestSignedComparisonModel(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	x := b.Var("x", 8)
	// x <s 0 ∧ x >s -10: a small negative number.
	cs := []*expr.Expr{
		b.Slt(x, b.Const(0, 8)),
		b.Slt(b.Const(0xf6, 8), x), // -10
	}
	model, sat, err := s.Witness(cs)
	if err != nil || !sat {
		t.Fatalf("signed range: sat=%v err=%v", sat, err)
	}
	v := int8(model["x"])
	if v >= 0 || v <= -10 {
		t.Errorf("model x=%d violates -10 < x < 0", v)
	}
}

func TestLiteralScanFastPath(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	d1 := b.Var("drop_1", 1)
	d2 := b.Var("drop_2", 1)
	if !feasible(t, s, []*expr.Expr{d1, b.Not(d2)}) {
		t.Error("independent drop literals should be SAT")
	}
	if feasible(t, s, []*expr.Expr{d1, b.Not(d1)}) {
		t.Error("contradictory drop literals should be UNSAT")
	}
	st := s.Stats()
	if st.FastPath != 2 {
		t.Errorf("FastPath = %d, want 2 (no SAT calls for literal sets)", st.FastPath)
	}
	if st.SATCalls != 0 {
		t.Errorf("SATCalls = %d, want 0", st.SATCalls)
	}
	// Fast-path models must satisfy the constraints too.
	model, sat, err := s.Witness([]*expr.Expr{d1, b.Not(d2)})
	if err != nil || !sat {
		t.Fatalf("model query: sat=%v err=%v", sat, err)
	}
	if model["drop_1"] != 1 || model["drop_2"] != 0 {
		t.Errorf("fast-path model = %v", model)
	}
}

func TestQueryCache(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	x := b.Var("x", 32)
	cs := []*expr.Expr{b.Ult(x, b.Const(5, 32)), b.Ne(x, b.Const(0, 32))}
	feasible(t, s, cs)
	before := s.Stats()
	feasible(t, s, cs)
	after := s.Stats()
	if after.CacheHits != before.CacheHits+1 {
		t.Errorf("second identical query missed the cache: %+v", after)
	}
	// Order must not matter.
	feasible(t, s, []*expr.Expr{cs[1], cs[0]})
	if s.Stats().CacheHits != before.CacheHits+2 {
		t.Error("permuted query missed the cache")
	}
	// The same constraint asserted twice is the same query.
	feasible(t, s, []*expr.Expr{cs[0], cs[1], cs[0]})
	if s.Stats().CacheHits != before.CacheHits+3 {
		t.Error("duplicated-constraint query missed the cache")
	}
}

func TestModelReusePool(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	x := b.Var("x", 32)
	base := []*expr.Expr{b.Ult(b.Const(100, 32), x)}
	if !feasible(t, s, base) {
		t.Fatal("x > 100 should be SAT")
	}
	// A weaker superset query should be answerable from the model pool.
	weaker := []*expr.Expr{b.Ult(b.Const(50, 32), x)}
	before := s.Stats().SATCalls
	if !feasible(t, s, weaker) {
		t.Fatal("x > 50 should be SAT")
	}
	if s.Stats().SATCalls != before {
		t.Error("weaker query was not answered from the model pool")
	}
}

func TestWidthValidation(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	if _, err := s.Feasible([]*expr.Expr{b.Const(3, 8)}); err == nil {
		t.Error("8-bit constraint accepted; want width error")
	}
}

// TestModelsSatisfyQueries is the central solver property: on random
// constraint sets over small widths, (1) the SAT/UNSAT verdict matches
// brute-force enumeration and (2) any returned model satisfies every
// constraint under the independent concrete evaluator.
func TestModelsSatisfyQueries(t *testing.T) {
	const width = 6
	cfg := &quick.Config{MaxCount: 120}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := expr.NewBuilder()
		x := b.Var("a", width)
		y := b.Var("b", width)
		nCons := 1 + rng.Intn(4)
		cs := make([]*expr.Expr, 0, nCons)
		for i := 0; i < nCons; i++ {
			var lhs *expr.Expr
			switch rng.Intn(6) {
			case 0:
				lhs = b.Add(x, y)
			case 1:
				lhs = b.Mul(x, y)
			case 2:
				lhs = b.Xor(x, y)
			case 3:
				lhs = b.UDiv(x, y)
			case 4:
				lhs = b.Shl(x, b.Trunc(b.ZExt(y, 8), width))
			default:
				lhs = b.Sub(y, x)
			}
			rhs := b.Const(rng.Uint64(), width)
			var c *expr.Expr
			switch rng.Intn(4) {
			case 0:
				c = b.Eq(lhs, rhs)
			case 1:
				c = b.Ult(lhs, rhs)
			case 2:
				c = b.Sle(lhs, rhs)
			default:
				c = b.Ne(lhs, rhs)
			}
			cs = append(cs, c)
		}

		// Brute force over the 2^12 input combinations.
		bruteSat := false
		for av := uint64(0); av < 1<<width && !bruteSat; av++ {
			for bv := uint64(0); bv < 1<<width; bv++ {
				env := expr.Env{"a": av, "b": bv}
				if satisfies(env, cs) {
					bruteSat = true
					break
				}
			}
		}

		s := New()
		model, sat, err := s.Witness(cs)
		if err != nil {
			t.Logf("seed %d: error %v", seed, err)
			return false
		}
		if sat != bruteSat {
			t.Logf("seed %d: solver=%v brute=%v", seed, sat, bruteSat)
			return false
		}
		if sat && !satisfies(model, cs) {
			t.Logf("seed %d: model %v does not satisfy query", seed, model)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestWidths exercises the blaster at every boundary width.
func TestWidths(t *testing.T) {
	for _, w := range []int{1, 2, 7, 8, 9, 16, 31, 32, 33, 63, 64} {
		b := expr.NewBuilder()
		s := New()
		x := b.Var("x", w)
		hi := b.Const(mask(uint8(w)), w)
		// x == all-ones is always satisfiable.
		model, sat, err := s.Witness([]*expr.Expr{b.Eq(x, hi)})
		if err != nil || !sat {
			t.Fatalf("w=%d: sat=%v err=%v", w, sat, err)
		}
		if model["x"] != hi.ConstVal() {
			t.Errorf("w=%d: model x=%#x, want %#x", w, model["x"], hi.ConstVal())
		}
		// x < 0 (unsigned) is never satisfiable.
		if feasible(t, s, []*expr.Expr{b.Ult(x, b.Const(0, w))}) {
			t.Errorf("w=%d: x <u 0 should be UNSAT", w)
		}
	}
}

func mask(w uint8) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

func TestOverflowWraps(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	x := b.Var("x", 8)
	// x + 1 == 0 forces x == 255 (wraparound).
	model, sat, err := s.Witness([]*expr.Expr{
		b.Eq(b.Add(x, b.Const(1, 8)), b.Const(0, 8)),
	})
	if err != nil || !sat {
		t.Fatalf("wrap query: sat=%v err=%v", sat, err)
	}
	if model["x"] != 255 {
		t.Errorf("model x=%d, want 255", model["x"])
	}
}

func TestShiftBySymbolicAmount(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	x := b.Var("x", 16)
	n := b.Var("n", 16)
	// (x << n) == 0x8000 with x == 1 forces n == 15.
	model, sat, err := s.Witness([]*expr.Expr{
		b.Eq(x, b.Const(1, 16)),
		b.Eq(b.Shl(x, n), b.Const(0x8000, 16)),
	})
	if err != nil || !sat {
		t.Fatalf("shift query: sat=%v err=%v", sat, err)
	}
	if model["n"] != 15 {
		t.Errorf("model n=%d, want 15", model["n"])
	}
	// Shifting 1 by >= 16 yields 0, so == 0x8000 with n >= 16 is UNSAT.
	if feasible(t, s, []*expr.Expr{
		b.Eq(x, b.Const(1, 16)),
		b.Ule(b.Const(16, 16), n),
		b.Eq(b.Shl(x, n), b.Const(0x8000, 16)),
	}) {
		t.Error("oversized shift producing nonzero should be UNSAT")
	}
}

func TestIteConstraint(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	c := b.Var("c", 1)
	x := b.Var("x", 8)
	// ite(c, x, 0) == 7 forces c == 1 and x == 7.
	model, sat, err := s.Witness([]*expr.Expr{
		b.Eq(b.Ite(c, x, b.Const(0, 8)), b.Const(7, 8)),
	})
	if err != nil || !sat {
		t.Fatalf("ite query: sat=%v err=%v", sat, err)
	}
	if model["c"] != 1 || model["x"] != 7 {
		t.Errorf("model = %v, want c=1 x=7", model)
	}
}

func TestConcurrentQueries(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	x := b.Var("x", 16)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 20; i++ {
				bound := uint64(g*100 + i + 1)
				ok, err := s.Feasible([]*expr.Expr{b.Ult(x, b.Const(bound, 16))})
				if err != nil {
					done <- err
					return
				}
				if !ok {
					done <- errFalse
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errFalse = &errString{"query unexpectedly UNSAT"}

type errString struct{ s string }

func (e *errString) Error() string { return e.s }
