package solver

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sde/internal/expr"
)

func randomTerm(eb *expr.Builder, rng *rand.Rand, vars []*expr.Expr, depth int) *expr.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(3) == 0 {
			return eb.Const(rng.Uint64()&0xff, 8)
		}
		return vars[rng.Intn(len(vars))]
	}
	x := randomTerm(eb, rng, vars, depth-1)
	y := randomTerm(eb, rng, vars, depth-1)
	switch rng.Intn(6) {
	case 0:
		return eb.Add(x, y)
	case 1:
		return eb.Sub(x, y)
	case 2:
		return eb.Mul(x, y)
	case 3:
		return eb.And(x, y)
	case 4:
		return eb.Or(x, y)
	default:
		return eb.Xor(x, y)
	}
}

func randomConstraint(eb *expr.Builder, rng *rand.Rand, vars, bools []*expr.Expr) *expr.Expr {
	// Sometimes emit a pure boolean literal, the shape the engine's
	// failure decisions take (exercises the literal fast path).
	if rng.Intn(4) == 0 {
		d := bools[rng.Intn(len(bools))]
		if rng.Intn(2) == 0 {
			return eb.Not(d)
		}
		return d
	}
	x := randomTerm(eb, rng, vars, 2)
	y := randomTerm(eb, rng, vars, 2)
	var c *expr.Expr
	switch rng.Intn(4) {
	case 0:
		c = eb.Eq(x, y)
	case 1:
		c = eb.Ne(x, y)
	case 2:
		c = eb.Ult(x, y)
	default:
		c = eb.Ule(x, y)
	}
	if rng.Intn(3) == 0 {
		c = eb.Not(c)
	}
	return c
}

// TestIncrementalDifferential is the soundness guard for the incremental
// pipeline: a randomized exploration — monotonically growing path
// conditions with fork points whose siblings diverge from a shared prefix
// — is decided three ways in lockstep, and all must agree on every query:
//
//   - oracle: from-scratch solving with every cache disabled;
//   - bare:   the persistent incremental instance, every cache disabled;
//   - full:   the default pipeline (caches, pool, subsumption, partition).
//
// Models returned by the incremental solvers are validated against the
// ground-truth evaluator. Well over 1000 prefix-extension queries run.
func TestIncrementalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eb := expr.NewBuilder()
	vars := []*expr.Expr{eb.Var("a", 8), eb.Var("b", 8), eb.Var("c", 8)}
	bools := []*expr.Expr{eb.Var("d0", 1), eb.Var("d1", 1), eb.Var("d2", 1)}

	bareOpts := Options{
		DisableCache:       true,
		DisablePool:        true,
		DisableFastPath:    true,
		DisablePartition:   true,
		DisableSubsumption: true,
	}
	oracleOpts := bareOpts
	oracleOpts.DisableIncremental = true

	full := New()
	bare := NewWithOptions(bareOpts)
	oracle := NewWithOptions(oracleOpts)

	ask := func(pc []*expr.Expr, c *expr.Expr, step int) bool {
		want, err := oracle.FeasibleWith(nil, pc, c)
		if err != nil {
			t.Fatalf("step %d: oracle: %v", step, err)
		}
		gotBare, err := bare.FeasibleWith(nil, pc, c)
		if err != nil {
			t.Fatalf("step %d: bare incremental: %v", step, err)
		}
		gotFull, err := full.FeasibleWith(nil, pc, c)
		if err != nil {
			t.Fatalf("step %d: full pipeline: %v", step, err)
		}
		if gotBare != want || gotFull != want {
			t.Fatalf("step %d: verdicts disagree: oracle=%v bare=%v full=%v (|pc|=%d)",
				step, want, gotBare, gotFull, len(pc))
		}
		if want && rng.Intn(3) == 0 {
			model, sat, err := bare.ModelWith(pc, c)
			if err != nil || !sat {
				t.Fatalf("step %d: bare ModelWith: sat=%v err=%v", step, sat, err)
			}
			for _, q := range pc {
				if expr.Eval(q, model) == 0 {
					t.Fatalf("step %d: incremental model %v violates prefix constraint", step, model)
				}
			}
			if expr.Eval(c, model) == 0 {
				t.Fatalf("step %d: incremental model %v violates the extension", step, model)
			}
		}
		return want
	}

	// The acceptance bar is ≥1000 prefix-extension queries; -short keeps
	// race/smoke runs fast while the regular run covers the full count.
	target := 1200
	if testing.Short() {
		target = 250
	}
	// branches holds the path condition of every live branch.
	branches := [][]*expr.Expr{nil}
	queries := 0
	for step := 0; queries < target; step++ {
		i := rng.Intn(len(branches))
		pc := branches[i]
		c := randomConstraint(eb, rng, vars, bools)
		notC := eb.Not(c)
		feasC := ask(pc, c, step)
		queries++
		feasNot := ask(pc, notC, step)
		queries++
		switch {
		case feasC && feasNot:
			// Fork: the sibling takes the negated side on a copy of the
			// prefix, mirroring vm.State.Fork + AddConstraint.
			if len(branches) < 24 && rng.Intn(2) == 0 {
				branches = append(branches, append(append([]*expr.Expr(nil), pc...), notC))
			}
			branches[i] = append(pc, c)
		case feasC:
			branches[i] = append(pc, c)
		case feasNot:
			branches[i] = append(pc, notC)
		default:
			t.Fatalf("step %d: both sides infeasible under a feasible prefix", step)
		}
	}

	if st := bare.Stats(); st.IncSolves == 0 {
		t.Error("bare incremental solver never used the persistent instance")
	} else if st.EncodeSkips == 0 {
		t.Error("bare incremental solver never found a prefix constraint in its blast memo")
	}
	// The full pipeline answers most of this workload from its caches, so
	// only assert it reached the persistent instance.
	if st := full.Stats(); st.IncSolves == 0 {
		t.Error("full pipeline never used the persistent instance")
	}
}

// TestFailureLiteralBesideDataConstraint is the traffic shape every SDE
// scenario has: a failure model's boolean decision literal next to a data
// constraint. The two are variable-disjoint, so the query partitions; the
// literal is answered by the scan and the data component goes to the
// slot's persistent instance — where the second query finds it already
// blasted: one memo lookup, no new gate. Cache and pool are off so that
// the second query reaches the instance at all.
func TestFailureLiteralBesideDataConstraint(t *testing.T) {
	eb := expr.NewBuilder()
	pc := []*expr.Expr{
		eb.Var("drop0", 1),
		eb.Ult(eb.Var("reading", 16), eb.Const(500, 16)),
	}
	s := NewWithOptions(Options{DisableCache: true, DisablePool: true})
	query := func() Stats {
		t.Helper()
		if sat, err := s.Feasible(pc); err != nil || !sat {
			t.Fatalf("sat=%v err=%v", sat, err)
		}
		return s.Stats()
	}
	first := query()
	if first.Partitions != 1 || first.FastPath != 1 || first.IncSolves != 1 || first.Gates == 0 || first.EncodeSkips != 0 {
		t.Fatalf("first query: %+v, want one partition, one literal scan, one first-time encode on the persistent instance", first)
	}
	st := query()
	if st.IncSolves != 2 {
		t.Errorf("IncSolves = %d after the second query, want 2 (the data component solved on the persistent instance)", st.IncSolves)
	}
	if st.EncodeSkips != 1 {
		t.Errorf("EncodeSkips = %d after the second query, want 1 (the data constraint served by the blast memo)", st.EncodeSkips)
	}
	if st.Gates != first.Gates {
		t.Errorf("second query allocated %d new gates, want 0", st.Gates-first.Gates)
	}
}

// TestIncrementalConcurrentSessions exercises the documented concurrency
// contract under -race: one Solver, many goroutines, each replaying the
// prefix-extension workload against the one slot-0 instance.
func TestIncrementalConcurrentSessions(t *testing.T) {
	eb := expr.NewBuilder()
	queries := PrefixExtensionQueries(eb, 8)
	s := New()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				if _, err := s.FeasibleWith(nil, q.Prefix, q.Extra); err != nil {
					errs <- fmt.Errorf("query %d: %w", i, err)
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
}
