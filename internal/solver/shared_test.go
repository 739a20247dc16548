package solver

import (
	"fmt"
	"sync"
	"testing"

	"sde/internal/expr"
)

// TestSharedCacheCrossBuilder: a verdict computed by one solver answers
// the structurally identical query of another solver whose expressions
// come from a completely independent Builder — the cross-shard reuse
// case of the parallel scheduler.
func TestSharedCacheCrossBuilder(t *testing.T) {
	shared := NewSharedCache()
	mkQuery := func(b *expr.Builder) []*expr.Expr {
		x := b.Var("x", 16)
		return []*expr.Expr{
			b.Eq(b.Mul(x, x), b.Const(49, 16)),
			b.Ult(x, b.Const(100, 16)),
		}
	}

	b1 := expr.NewBuilder()
	q1 := mkQuery(b1)
	s1 := NewWithOptions(Options{SharedCache: shared})
	sat, err := s1.Feasible(q1)
	if err != nil || !sat {
		t.Fatalf("first solver: sat=%v err=%v", sat, err)
	}
	if s1.Stats().SharedHits != 0 {
		t.Error("first solver hit an empty shared cache")
	}
	if st := shared.Stats(); st.Stores == 0 {
		t.Fatal("first solver stored nothing")
	}

	b2 := expr.NewBuilder()
	q2 := mkQuery(b2)
	s2 := NewWithOptions(Options{SharedCache: shared})
	sat, err = s2.Feasible(q2)
	if err != nil || !sat {
		t.Fatalf("second solver: sat=%v err=%v", sat, err)
	}
	st2 := s2.Stats()
	if st2.SharedHits == 0 {
		t.Errorf("second solver stats: %+v, want a shared hit", st2)
	}
	if st2.SATCalls != 0 {
		t.Errorf("second solver ran %d SAT calls despite the shared verdict", st2.SATCalls)
	}
	// The cache holds verdicts only; each builder's witness is its own
	// from-scratch solve, and the two agree.
	model1, _, err := s1.Witness(q1)
	if err != nil {
		t.Fatal(err)
	}
	model2, _, err := s2.Witness(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !satisfies(model2, q2) || model1["x"] != model2["x"] {
		t.Errorf("witnesses %v and %v: want equal models of the query", model1, model2)
	}
}

// TestSharedCacheUnsat: unsat verdicts are shared too.
func TestSharedCacheUnsat(t *testing.T) {
	shared := NewSharedCache()
	mkQuery := func(b *expr.Builder) []*expr.Expr {
		x := b.Var("x", 8)
		return []*expr.Expr{
			b.Ult(x, b.Const(5, 8)),
			b.Ult(b.Const(10, 8), x),
		}
	}
	s1 := NewWithOptions(Options{SharedCache: shared})
	if sat, err := s1.Feasible(mkQuery(expr.NewBuilder())); err != nil || sat {
		t.Fatalf("sat=%v err=%v, want unsat", sat, err)
	}
	s2 := NewWithOptions(Options{SharedCache: shared})
	if sat, err := s2.Feasible(mkQuery(expr.NewBuilder())); err != nil || sat {
		t.Fatalf("second solver: sat=%v err=%v, want unsat", sat, err)
	}
	if st := s2.Stats(); st.SharedHits == 0 || st.SATCalls != 0 {
		t.Errorf("second solver stats: %+v, want shared hit and no SAT call", st)
	}
}

// TestSharedCacheConcurrent hammers one cache from many solvers on
// distinct builders; run under -race this is the scheduler's memory
// model in miniature. A solver that arrives afterwards finds every
// verdict in the cache.
func TestSharedCacheConcurrent(t *testing.T) {
	shared := NewSharedCache()
	query := func(b *expr.Builder, i int) []*expr.Expr {
		x := b.Var(fmt.Sprintf("v%d", i%7), 16)
		return []*expr.Expr{
			b.Eq(b.Mul(x, x), b.Const(uint64((i%7)*(i%7)), 16)),
			b.Ult(x, b.Const(200, 16)),
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := expr.NewBuilder()
			s := NewWithOptions(Options{SharedCache: shared})
			for i := 0; i < 40; i++ {
				sat, err := s.Feasible(query(b, i))
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
				if !sat {
					errs <- fmt.Errorf("worker %d query %d: unexpectedly unsat", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := shared.Stats()
	if st.Lookups == 0 || st.Stores == 0 {
		t.Errorf("cache never used: %+v", st)
	}
	if st.Entries > st.Stores {
		t.Errorf("entries %d exceed stores %d", st.Entries, st.Stores)
	}
	b := expr.NewBuilder()
	late := NewWithOptions(Options{SharedCache: shared})
	for i := 0; i < 7; i++ {
		if sat, err := late.Feasible(query(b, i)); err != nil || !sat {
			t.Fatalf("late query %d: sat=%v err=%v", i, sat, err)
		}
	}
	if st := late.Stats(); st.SharedHits != 7 || st.SATCalls != 0 {
		t.Errorf("late solver stats: %+v, want 7 shared hits and no SAT call", st)
	}
}

// TestSharedCacheDisabledByDefault: a solver without the option never
// touches a shared cache and reports no shared hits.
func TestSharedCacheDisabledByDefault(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 8)
	s := New()
	if sat, err := s.Feasible([]*expr.Expr{b.Ult(x, b.Const(5, 8))}); err != nil || !sat {
		t.Fatalf("sat=%v err=%v", sat, err)
	}
	if st := s.Stats(); st.SharedHits != 0 {
		t.Errorf("SharedHits = %d without a shared cache", st.SharedHits)
	}
}
