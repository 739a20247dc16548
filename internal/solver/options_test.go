package solver

import (
	"errors"
	"testing"

	"sde/internal/expr"
)

// TestOptionsPreserveAnswers: every configuration Options can express must
// return the verdict of a from-scratch solve of the whole, unpartitioned
// constraint set.
func TestOptionsPreserveAnswers(t *testing.T) {
	b := expr.NewBuilder()
	configs := []Options{
		{},
		{SharedCache: NewSharedCache()},
	}
	x := b.Var("x", 16)
	y := b.Var("y", 16)
	d := b.Var("d", 1)
	queries := [][]*expr.Expr{
		{b.Ult(x, b.Const(5, 16))},
		{b.Ult(x, b.Const(5, 16)), b.Ult(b.Const(10, 16), x)}, // UNSAT
		{d},
		{d, b.Not(d)}, // UNSAT
		{b.Eq(b.Mul(x, x), b.Const(49, 16))},
		{b.Ult(x, b.Const(5, 16))}, // repeat: exercises the cache
		{d, b.Ult(y, b.Const(3, 16)), b.Ult(b.Const(5, 16), y)},          // partitioned, UNSAT
		{d, b.Ult(y, b.Const(3, 16)), b.Ult(b.Const(5, 16), y)},          // its repeat
		{b.Ult(x, b.Const(5, 16)), b.Ne(y, b.Const(0, 16)), b.Not(d), d}, // partitioned, UNSAT literal part
	}
	want := []bool{true, false, true, false, true, true, false, false, false}
	oracle := New()
	for i, q := range queries {
		sat, _, err := oracle.solveSAT(q)
		if err != nil || sat != want[i] {
			t.Fatalf("query %d: from-scratch solve sat=%v err=%v, want %v", i, sat, err, want[i])
		}
	}
	for _, opts := range configs {
		s := NewWithOptions(opts)
		for i, q := range queries {
			got, err := s.Feasible(q)
			if err != nil {
				t.Fatalf("opts %+v query %d: %v", opts, i, err)
			}
			if got != want[i] {
				t.Errorf("opts %+v query %d: got %v, want %v", opts, i, got, want[i])
			}
		}
	}
}

// TestSubsumptionSatSuperset: once {c1, c2, c3} is known SAT, any subset
// of it is SAT too, without a CDCL run: the superset's model, pooled,
// satisfies every subset.
func TestSubsumptionSatSuperset(t *testing.T) {
	eb := expr.NewBuilder()
	x := eb.Var("x", 8)
	y := eb.Var("y", 8)
	c1 := eb.Ult(x, y)
	c2 := eb.Ult(x, eb.Const(20, 8))
	c3 := eb.Ne(y, eb.Const(0, 8))

	s := New()
	if sat, err := s.Feasible([]*expr.Expr{c1, c2, c3}); err != nil || !sat {
		t.Fatalf("superset: sat=%v err=%v", sat, err)
	}
	calls := s.Stats().SATCalls

	if sat, err := s.Feasible([]*expr.Expr{c1, c3}); err != nil || !sat {
		t.Fatalf("subset of a SAT query must be SAT: sat=%v err=%v", sat, err)
	}
	st := s.Stats()
	if st.PoolHits != 1 {
		t.Errorf("PoolHits = %d, want 1", st.PoolHits)
	}
	if st.SATCalls != calls {
		t.Errorf("SATCalls = %d, want %d (no new CDCL run)", st.SATCalls, calls)
	}
	if st.SubsumptionHits != 0 {
		t.Errorf("SubsumptionHits = %d, want 0 (the counter is never set)", st.SubsumptionHits)
	}
}

// TestPartitionedUnsatRepeatIsCacheHit: a partitioned query's verdict is
// cached whole, UNSAT as well as SAT, so an identical repeat is one
// exact-cache hit — no pool scan, no walk of its components.
func TestPartitionedUnsatRepeatIsCacheHit(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	q := []*expr.Expr{
		b.Eq(x, b.Const(1, 8)),  // satisfiable component
		b.Ult(y, b.Const(3, 8)), // contradicts the next within {y}
		b.Ult(b.Const(5, 8), y),
	}
	shared := NewSharedCache()
	s := NewWithOptions(Options{SharedCache: shared})
	if sat, err := s.Feasible(q); err != nil || sat {
		t.Fatalf("first: sat=%v err=%v, want UNSAT", sat, err)
	}
	before := s.Stats()
	if before.Partitions != 1 {
		t.Fatalf("Partitions = %d, want 1", before.Partitions)
	}
	if sat, err := s.Feasible(q); err != nil || sat {
		t.Fatalf("repeat: sat=%v err=%v, want UNSAT", sat, err)
	}
	after := s.Stats()
	if d := after.CacheHits - before.CacheHits; d != 1 {
		t.Errorf("repeat took %d exact-cache hits, want 1", d)
	}
	if d := after.Queries - before.Queries; d != 1 {
		t.Errorf("repeat made %d queries, want 1 (no component recursion)", d)
	}
	if after.SATCalls != before.SATCalls || after.PoolHits != before.PoolHits || after.Partitions != before.Partitions {
		t.Errorf("repeat reached past the cache: before %+v, after %+v", before, after)
	}
	// Another solver over the same shared cache finds the verdict there.
	other := NewWithOptions(Options{SharedCache: shared})
	if sat, err := other.Feasible(q); err != nil || sat {
		t.Fatalf("shared: sat=%v err=%v, want UNSAT", sat, err)
	}
	if st := other.Stats(); st.SharedHits != 1 || st.SATCalls != 0 {
		t.Errorf("shared lookup: SharedHits=%d SATCalls=%d, want 1 and 0", st.SharedHits, st.SATCalls)
	}
}

// cachedVerdicts counts the SAT and UNSAT entries of the solver's private
// exact cache.
func cachedVerdicts(s *Solver) (sat, unsat int) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	for _, e := range s.cache {
		if e.sat {
			sat++
		} else {
			unsat++
		}
	}
	return sat, unsat
}

// hardQuery returns a constraint set that forces real CDCL search: find a
// nontrivial factorisation of a 16-bit constant. It is a single connected
// component (all constraints share x or y).
func hardQuery(eb *expr.Builder) []*expr.Expr {
	x := eb.Var("hx", 16)
	y := eb.Var("hy", 16)
	one := eb.Const(1, 16)
	return []*expr.Expr{
		eb.Eq(eb.Mul(x, y), eb.Const(0xD431, 16)),
		eb.Ult(one, x),
		eb.Ult(one, y),
		eb.Ult(x, y),
	}
}

// checkBudgetLeavesNoVerdict decides q on a 1-conflict solver over a
// fresh shared cache and requires ErrBudget twice — a cached "unknown"
// would be replayed as a definite verdict forever — with neither the
// exact nor the shared cache holding a verdict for q afterwards. An
// unlimited solver over the same shared cache must then agree with an
// isolated from-scratch oracle, which a poisoned shared entry would not.
// It returns the budgeted solver for further checks.
func checkBudgetLeavesNoVerdict(t *testing.T, q []*expr.Expr) *Solver {
	t.Helper()
	shared := NewSharedCache()
	s := NewWithOptions(Options{MaxConflicts: 1, SharedCache: shared})
	_, err := s.Feasible(q)
	if err == nil {
		t.Skip("query solved within 1 conflict; no budget exhaustion to test")
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	key, hashes := queryKey(q)
	s.cacheMu.Lock()
	_, cached := s.cache[key]
	s.cacheMu.Unlock()
	if cached {
		t.Error("budget-exhausted query has an exact-cache entry")
	}
	if _, ok := shared.lookup(key, hashes); ok {
		t.Error("budget-exhausted query has a shared-cache entry")
	}
	if _, unsat := cachedVerdicts(s); unsat != 0 {
		t.Errorf("%d UNSAT verdicts cached after budget exhaustion", unsat)
	}
	// A second attempt must retry (and fail) rather than replay a verdict.
	if _, err := s.Feasible(q); !errors.Is(err, ErrBudget) {
		t.Errorf("second attempt: err = %v, want ErrBudget again", err)
	}

	unlimited := NewWithOptions(Options{SharedCache: shared})
	got, err := unlimited.Feasible(q)
	if err != nil {
		t.Fatalf("unlimited solver: %v", err)
	}
	_, want, err := New().Witness(q)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if got != want {
		t.Errorf("verdict after budget exhaustion = %v, oracle says %v", got, want)
	}
	return s
}

// TestErrBudgetNeverCached (direct path): a budget-exhausted query must
// leave the private exact cache and the shared cache untouched.
func TestErrBudgetNeverCached(t *testing.T) {
	s := checkBudgetLeavesNoVerdict(t, hardQuery(expr.NewBuilder()))
	if sat, unsat := cachedVerdicts(s); sat+unsat != 0 {
		t.Errorf("budget-exhausted query left %d exact-cache entries", sat+unsat)
	}
}

// TestErrBudgetNeverCachedPartitioned: same guarantee through
// checkPartitioned — the query splits into the hard component and an easy
// one; when the hard component exhausts the budget, neither the whole
// query nor any UNSAT verdict may be cached (an easy component's SAT
// verdict would be legitimate).
func TestErrBudgetNeverCachedPartitioned(t *testing.T) {
	eb := expr.NewBuilder()
	z := eb.Var("z", 8)
	s := checkBudgetLeavesNoVerdict(t, append(hardQuery(eb), eb.Ult(z, eb.Const(5, 8))))
	if st := s.Stats(); st.Partitions == 0 {
		t.Fatalf("query was not partitioned; test needs the checkPartitioned path")
	}
}

func TestMaxConflictsViaOptions(t *testing.T) {
	b := expr.NewBuilder()
	// A hard query: two 24-bit multiplications forced equal with
	// conflicting range constraints; tiny conflict budget must error.
	x := b.Var("x", 24)
	y := b.Var("y", 24)
	q := []*expr.Expr{
		b.Eq(b.Mul(x, y), b.Const(0x7fffd, 24)),
		b.Ult(x, y),
	}
	s := NewWithOptions(Options{MaxConflicts: 1})
	_, err := s.Feasible(q)
	if err == nil {
		t.Skip("query solved within one conflict; budget untestable here")
	}
	if err != ErrBudget {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}
