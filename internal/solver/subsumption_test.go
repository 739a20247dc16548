package solver

import (
	"errors"
	"testing"

	"sde/internal/expr"
)

// subsumptionTestOpts isolates the subsumption layer: the model pool,
// fast path, and partitioning are off so a second query can only be
// answered by the exact cache, subsumption, or a fresh SAT call.
var subsumptionTestOpts = Options{
	DisablePool:      true,
	DisableFastPath:  true,
	DisablePartition: true,
}

// TestSubsumptionUnsatSubset: once {x<5, 5<x} is known UNSAT, any
// superset of it — here with an extra constraint coupling in y — must be
// refuted by the cache without another SAT call.
func TestSubsumptionUnsatSubset(t *testing.T) {
	eb := expr.NewBuilder()
	x := eb.Var("x", 8)
	y := eb.Var("y", 8)
	a := eb.Ult(x, eb.Const(5, 8))
	b := eb.Ult(eb.Const(5, 8), x)

	s := NewWithOptions(subsumptionTestOpts)
	if sat, err := s.Feasible([]*expr.Expr{a, b}); err != nil || sat {
		t.Fatalf("core: sat=%v err=%v", sat, err)
	}
	calls := s.Stats().SATCalls

	if sat, err := s.Feasible([]*expr.Expr{a, b, eb.Ult(x, y)}); err != nil || sat {
		t.Fatalf("superset of an UNSAT core must be UNSAT: sat=%v err=%v", sat, err)
	}
	st := s.Stats()
	if st.SubsumptionHits != 1 {
		t.Errorf("SubsumptionHits = %d, want 1", st.SubsumptionHits)
	}
	if st.SATCalls != calls {
		t.Errorf("SATCalls = %d, want %d (no new CDCL run)", st.SATCalls, calls)
	}
}

// TestSubsumptionSatSuperset: once {c1, c2, c3} is known SAT, any subset
// of it is SAT too, without a CDCL run.
func TestSubsumptionSatSuperset(t *testing.T) {
	eb := expr.NewBuilder()
	x := eb.Var("x", 8)
	y := eb.Var("y", 8)
	c1 := eb.Ult(x, y)
	c2 := eb.Ult(x, eb.Const(20, 8))
	c3 := eb.Ne(y, eb.Const(0, 8))

	s := NewWithOptions(subsumptionTestOpts)
	if sat, err := s.Feasible([]*expr.Expr{c1, c2, c3}); err != nil || !sat {
		t.Fatalf("superset: sat=%v err=%v", sat, err)
	}
	calls := s.Stats().SATCalls

	if sat, err := s.Feasible([]*expr.Expr{c1, c3}); err != nil || !sat {
		t.Fatalf("subset of a SAT query must be SAT: sat=%v err=%v", sat, err)
	}
	st := s.Stats()
	if st.SubsumptionHits != 1 {
		t.Errorf("SubsumptionHits = %d, want 1", st.SubsumptionHits)
	}
	if st.SATCalls != calls {
		t.Errorf("SATCalls = %d, want %d (no new CDCL run)", st.SATCalls, calls)
	}
}

// TestDisableSubsumption: with the switch set, the same subset/superset
// pair needs fresh SAT calls and records no subsumption hits.
func TestDisableSubsumption(t *testing.T) {
	eb := expr.NewBuilder()
	x := eb.Var("x", 8)
	y := eb.Var("y", 8)
	a := eb.Ult(x, eb.Const(5, 8))
	b := eb.Ult(eb.Const(5, 8), x)

	opts := subsumptionTestOpts
	opts.DisableSubsumption = true
	s := NewWithOptions(opts)
	if sat, err := s.Feasible([]*expr.Expr{a, b}); err != nil || sat {
		t.Fatalf("core: sat=%v err=%v", sat, err)
	}
	if sat, err := s.Feasible([]*expr.Expr{a, b, eb.Ult(x, y)}); err != nil || sat {
		t.Fatalf("superset: sat=%v err=%v", sat, err)
	}
	st := s.Stats()
	if st.SubsumptionHits != 0 {
		t.Errorf("SubsumptionHits = %d, want 0 when disabled", st.SubsumptionHits)
	}
	if st.SATCalls != 2 {
		t.Errorf("SATCalls = %d, want 2 (each query decided on its own)", st.SATCalls)
	}
}

// unsatVerdictsCached counts UNSAT verdicts across the solver's private
// exact cache and subsumption index.
func unsatVerdictsCached(s *Solver) int {
	n := 0
	for i := range s.cache {
		str := &s.cache[i]
		str.mu.Lock()
		for _, e := range str.m {
			if !e.sat {
				n++
			}
		}
		str.mu.Unlock()
	}
	s.subsMu.RLock()
	for _, e := range s.subs.entries {
		if !e.sat {
			n++
		}
	}
	s.subsMu.RUnlock()
	return n
}

// exactCacheLen counts entries across the striped exact cache.
func exactCacheLen(s *Solver) int {
	n := 0
	for i := range s.cache {
		str := &s.cache[i]
		str.mu.Lock()
		n += len(str.m)
		str.mu.Unlock()
	}
	return n
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

// TestErrBudgetNeverCached (direct path): a budget-exhausted query must
// leave every cache — private exact, subsumption, and shared — untouched.
// A cached "unknown" would be replayed as a definite verdict forever.
func TestErrBudgetNeverCached(t *testing.T) {
	eb := expr.NewBuilder()
	q := hardQuery(eb)
	shared := NewSharedCache()

	opts := subsumptionTestOpts
	opts.MaxConflicts = 1
	opts.SharedCache = shared
	s := NewWithOptions(opts)

	_, err := s.Feasible(q)
	if err == nil {
		t.Skip("query solved within 1 conflict; no budget exhaustion to test")
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	ncache := exactCacheLen(s)
	s.subsMu.RLock()
	nsubs := len(s.subs.entries)
	s.subsMu.RUnlock()
	if ncache != 0 || nsubs != 0 {
		t.Errorf("budget-exhausted verdict cached: %d exact entries, %d subsumption entries", ncache, nsubs)
	}
	if st := shared.Stats(); st.Stores != 0 {
		t.Errorf("budget-exhausted verdict stored in shared cache: %d stores", st.Stores)
	}
	// A second attempt must retry (and fail) rather than replay a verdict.
	if _, err := s.Feasible(q); !errors.Is(err, ErrBudget) {
		t.Errorf("second attempt: err = %v, want ErrBudget again", err)
	}

	// An unlimited solver over the same shared cache must agree with an
	// isolated from-scratch oracle — a poisoned shared entry would not.
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
}

// TestErrBudgetNeverCachedPartitioned: same guarantee through
// checkPartitioned — the query splits into an easy component and a hard
// one; when the hard component exhausts the budget, no UNSAT verdict may
// survive anywhere (the easy component's SAT verdict is legitimate).
func TestErrBudgetNeverCachedPartitioned(t *testing.T) {
	eb := expr.NewBuilder()
	z := eb.Var("z", 8)
	q := append(hardQuery(eb), eb.Ult(z, eb.Const(5, 8)))
	shared := NewSharedCache()

	s := NewWithOptions(Options{
		DisablePool:     true,
		DisableFastPath: true,
		MaxConflicts:    1,
		SharedCache:     shared,
	})
	_, err := s.Feasible(q)
	if err == nil {
		t.Skip("query solved within 1 conflict; no budget exhaustion to test")
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if st := s.Stats(); st.Partitions == 0 {
		t.Fatalf("query was not partitioned; test needs the checkPartitioned path")
	}
	if n := unsatVerdictsCached(s); n != 0 {
		t.Errorf("%d UNSAT verdicts cached after budget exhaustion", n)
	}

	// Same cross-check through the shared cache.
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
}
