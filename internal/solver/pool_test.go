package solver

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sde/internal/expr"
)

// poolFixture is a Builder with a few narrow data variables and boolean
// literals, so random models satisfy random constraints often enough that
// both pool verdicts are common.
type poolFixture struct {
	eb          *expr.Builder
	vars, bools []*expr.Expr
	names       map[uint32]string // var id → name
}

func newPoolFixture() *poolFixture {
	f := &poolFixture{eb: expr.NewBuilder(), names: map[uint32]string{}}
	for i := 0; i < 4; i++ {
		f.vars = append(f.vars, f.eb.Var(fmt.Sprintf("x%d", i), 3))
		f.bools = append(f.bools, f.eb.Var(fmt.Sprintf("d%d", i), 1))
	}
	for _, v := range append(slices.Clone(f.vars), f.bools...) {
		f.names[v.VarID()] = v.VarName()
	}
	return f
}

// model draws a pool model over a random subset of the variables (the rest
// are don't-cares), with values that may carry bits above a variable's
// width.
func (f *poolFixture) model(rng *rand.Rand) poolModel {
	var m poolModel
	for _, v := range append(slices.Clone(f.vars), f.bools...) {
		if rng.Intn(4) != 0 {
			m = append(m, boundVar{id: v.VarID(), val: rng.Uint64() & 0x3f})
		}
	}
	slices.SortFunc(m, func(x, y boundVar) int { return cmp.Compare(x.id, y.id) })
	return m
}

func (f *poolFixture) constraints(rng *rand.Rand) []*expr.Expr {
	cs := make([]*expr.Expr, 1+rng.Intn(3))
	for i := range cs {
		cs[i] = randomConstraint(f.eb, rng, f.vars, f.bools)
	}
	return cs
}

// env is m by variable name, the form expr.Eval reads.
func (f *poolFixture) env(m poolModel) expr.Env {
	env := expr.Env{}
	for _, b := range m {
		env[f.names[b.id]] = b.val
	}
	return env
}

// TestPoolAnswersMatchesEval holds the counterexample pool to its
// definition: poolAnswers is true iff some pooled model makes every
// constraint evaluate to 1 under expr.Eval, which reads the model by name
// on a fresh memo — not by id on a reused evaluator, as the scan does.
func TestPoolAnswersMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := newPoolFixture()
	hits := 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		s := New()
		for n := rng.Intn(poolCap + 1); n > 0; n-- {
			s.pool = append(s.pool, f.model(rng))
		}
		cs := f.constraints(rng)
		want := false
		for _, m := range s.pool {
			if satisfies(f.env(m), cs) {
				want = true
			}
		}
		if got := s.poolAnswers(cs); got != want {
			t.Fatalf("trial %d: poolAnswers(%v) = %v over %d models, Eval says %v", trial, cs, got, len(s.pool), want)
		}
		if want {
			hits++
		}
	}
	if hits < trials/10 || hits > trials*9/10 {
		t.Errorf("%d of %d scans hit: the corpus does not exercise both verdicts", hits, trials)
	}
}

// TestPoolAnswersConcurrent: the interpreter thread, speculation workers
// and witness goroutines scan the pool, partition constraint sets and take
// the literal fast path at once, each on scratch of its own. Four
// goroutines share one Solver with a fixed pool and must reproduce the
// answers computed alone, while deciding queries on a second, live Solver
// whose pool they fill and scan concurrently. Run under -race in CI.
func TestPoolAnswersConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := newPoolFixture()
	fixed := New()
	for i := 0; i < poolCap; i++ {
		fixed.pool = append(fixed.pool, f.model(rng))
	}
	type query struct {
		cs        []*expr.Expr
		pool      bool
		labels    []int
		lsat, lok bool
		verdict   bool
	}
	oracle := New()
	queries := make([]query, 200)
	for i := range queries {
		q := &queries[i]
		q.cs = f.constraints(rng)
		q.pool = fixed.poolAnswers(q.cs)
		q.labels = expr.Components(q.cs)
		q.lsat, q.lok = literalVerdict(q.cs)
		_, sat, err := oracle.Witness(q.cs)
		if err != nil {
			t.Fatal(err)
		}
		q.verdict = sat
	}

	live := New()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slot := live.NewWorkerSlot()
			for rep := 0; rep < 5; rep++ {
				for i := range queries {
					q := &queries[(i*7+g*31+rep)%len(queries)]
					if got := fixed.poolAnswers(q.cs); got != q.pool {
						errs <- fmt.Errorf("goroutine %d: poolAnswers(%v) = %v, alone %v", g, q.cs, got, q.pool)
						return
					}
					if got := expr.Components(q.cs); !slices.Equal(got, q.labels) {
						errs <- fmt.Errorf("goroutine %d: Components(%v) = %v, alone %v", g, q.cs, got, q.labels)
						return
					}
					if sat, ok := literalVerdict(q.cs); sat != q.lsat || ok != q.lok {
						errs <- fmt.Errorf("goroutine %d: literalVerdict(%v) = %v,%v, alone %v,%v", g, q.cs, sat, ok, q.lsat, q.lok)
						return
					}
					sat, err := live.FeasibleOn(slot, q.cs, nil)
					if err != nil || sat != q.verdict {
						errs <- fmt.Errorf("goroutine %d: FeasibleOn(%v) = %v, %v; Witness says %v", g, q.cs, sat, err, q.verdict)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := live.Stats(); st.PoolHits == 0 {
		t.Errorf("the live solver's pool never answered a query: %+v", st)
	}
}

// TestFrontEndAllocs: in steady state a pool scan and the literal fast
// path allocate nothing, and Components allocates only the labels it
// returns — scratch comes from pools and is indexed by id, never a map.
func TestFrontEndAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what is Put under the race detector")
	}
	rng := rand.New(rand.NewSource(2))
	f := newPoolFixture()
	s := New()
	for i := 0; i < poolCap; i++ {
		s.pool = append(s.pool, f.model(rng))
	}
	cs := f.constraints(rng)
	lits := []*expr.Expr{f.bools[0], f.eb.Not(f.bools[1]), f.bools[2]}
	for _, c := range []struct {
		name string
		fn   func()
		max  float64
	}{
		{"poolAnswers", func() { s.poolAnswers(cs) }, 0},
		{"literalVerdict", func() { literalVerdict(lits) }, 0},
		{"Components", func() { expr.Components(cs) }, 1},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got > c.max {
			t.Errorf("%s allocates %v objects per call, want at most %v", c.name, got, c.max)
		}
	}
}
