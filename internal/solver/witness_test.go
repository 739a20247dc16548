package solver

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sde/internal/expr"
)

// witnessCorpus returns random constraint sets over shared 8-bit
// variables and boolean literals: a mix of data components, literal
// components and sets that are unsatisfiable.
func witnessCorpus(eb *expr.Builder, rng *rand.Rand, n int) [][]*expr.Expr {
	vars := []*expr.Expr{eb.Var("x", 8), eb.Var("y", 8), eb.Var("z", 8), eb.Var("w", 8)}
	bools := []*expr.Expr{eb.Var("d0", 1), eb.Var("d1", 1), eb.Var("d2", 1)}
	out := make([][]*expr.Expr, n)
	for i := range out {
		size := 1 + rng.Intn(6)
		for range size {
			out[i] = append(out[i], randomConstraint(eb, rng, vars, bools))
		}
	}
	return out
}

// TestWitnessIsAFunctionOfTheSet: shuffling a constraint set, repeating
// its members, and asking on a solver with any history — feasibility
// queries, model queries on its subsets, other witnesses — gives the same
// verdict and the same model as a fresh solver's, and every model satisfies
// every constraint.
func TestWitnessIsAFunctionOfTheSet(t *testing.T) {
	eb := expr.NewBuilder()
	rng := rand.New(rand.NewSource(31))
	n := 300
	if raceEnabled {
		n = 60
	}
	corpus := witnessCorpus(eb, rng, n)
	used := New() // accumulates history over the whole corpus
	sats := 0
	for i, cs := range corpus {
		want, wantSat, err := New().Witness(cs)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if wantSat {
			sats++
			if !satisfies(want, cs) {
				t.Fatalf("set %d: model %v violates a constraint", i, want)
			}
		}
		// History on the reused solver: every cache, the pool, the
		// persistent instance and the witness memo see this set's
		// prefixes and suffixes first.
		for j := 1; j <= len(cs); j++ {
			if _, err := used.Feasible(cs[:j]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := used.Witness(cs[j-1:]); err != nil {
				t.Fatal(err)
			}
		}
		for trial := range 3 {
			perm := append([]*expr.Expr(nil), cs...)
			perm = append(perm, cs[rng.Intn(len(cs))]) // a duplicate
			rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			sv := used
			if trial == 0 {
				sv = New()
			}
			got, sat, err := sv.Witness(perm)
			if err != nil {
				t.Fatalf("set %d trial %d: %v", i, trial, err)
			}
			if sat != wantSat || !reflect.DeepEqual(got, want) {
				t.Fatalf("set %d trial %d: (%v, %v), the set in its own order gave (%v, %v)",
					i, trial, got, sat, want, wantSat)
			}
		}
	}
	if sats < len(corpus)/4 || sats == len(corpus) {
		t.Fatalf("%d of %d sets satisfiable: the corpus does not exercise both verdicts", sats, len(corpus))
	}
}

// TestWitnessCallerOwnsModel: the returned Env is a copy, so a caller
// editing it cannot change what the memo hands out next.
func TestWitnessCallerOwnsModel(t *testing.T) {
	eb := expr.NewBuilder()
	x := eb.Var("x", 8)
	cs := []*expr.Expr{eb.Eq(eb.Mul(x, eb.Const(3, 8)), eb.Const(33, 8))}
	s := New()
	m, sat, err := s.Witness(cs)
	if err != nil || !sat {
		t.Fatalf("Witness = %v, %v", sat, err)
	}
	m["x"] = 200
	again, _, _ := s.Witness(cs)
	if !satisfies(again, cs) {
		t.Fatalf("second witness %v was changed through the first", again)
	}
}

// TestWitnessSingleFlight: goroutines asking for one constraint set at
// once share one from-scratch solve of it.
func TestWitnessSingleFlight(t *testing.T) {
	eb := expr.NewBuilder()
	x, y := eb.Var("x", 16), eb.Var("y", 16)
	cs := []*expr.Expr{
		eb.Eq(eb.Mul(x, y), eb.Const(0xD431, 16)),
		eb.Ult(eb.Const(1, 16), x),
		eb.Ult(x, y),
	}
	s := New()
	const n = 8
	models := make([]expr.Env, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			m, sat, err := s.Witness(cs)
			if err != nil || !sat {
				t.Errorf("goroutine %d: sat=%v err=%v", i, sat, err)
			}
			models[i] = m
		}()
	}
	close(start)
	wg.Wait()
	if st := s.Stats(); st.SATCalls != 1 || st.Queries != n {
		t.Errorf("%d SAT calls for %d queries of one set, want 1 for %d", st.SATCalls, st.Queries, n)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(models[i], models[0]) {
			t.Errorf("goroutine %d got %v, goroutine 0 %v", i, models[i], models[0])
		}
	}
}

// TestWitnessBudget: a component that exhausts MaxConflicts is ErrBudget,
// on every ask — the memo keeps the unknown as an unknown.
func TestWitnessBudget(t *testing.T) {
	eb := expr.NewBuilder()
	s := NewWithOptions(Options{MaxConflicts: 1})
	for range 2 {
		_, sat, err := s.Witness(hardQuery(eb))
		if err == nil {
			t.Skip("query solved within 1 conflict; no budget exhaustion to test")
		}
		if !errors.Is(err, ErrBudget) || sat {
			t.Fatalf("Witness = (sat=%v, %v), want ErrBudget", sat, err)
		}
	}
	if _, sat, err := New().Witness(hardQuery(eb)); err != nil || !sat {
		t.Fatalf("without a budget: sat=%v err=%v", sat, err)
	}
}
