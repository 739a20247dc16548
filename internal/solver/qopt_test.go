package solver

import (
	"slices"
	"testing"

	"sde/internal/expr"
	"sde/internal/qopt"
)

// optimizedOptions returns solver options with the query optimizer
// attached, plus the optimizer itself for counter checks.
func optimizedOptions(eb *expr.Builder) (Options, *qopt.Optimizer) {
	o := qopt.New(eb)
	return Options{Optimizer: o}, o
}

// TestOptimizerFeasibilityAgreement replays the runicast query stream on
// an optimized and an unoptimized solver and requires identical verdicts
// on every query — the per-query form of the whole-run soundness test.
func TestOptimizerFeasibilityAgreement(t *testing.T) {
	ebA := expr.NewBuilder()
	ebB := expr.NewBuilder()
	optsA, _ := optimizedOptions(ebA)
	sa := NewWithOptions(optsA)
	sb := NewWithOptions(Options{})
	qa := RunicastPrefixQueries(ebA, 3, 6)
	qb := RunicastPrefixQueries(ebB, 3, 6)
	for i := range qa {
		gotA, err := sa.FeasibleWith(nil, qa[i].Prefix, qa[i].Extra)
		if err != nil {
			t.Fatalf("query %d (optimized): %v", i, err)
		}
		gotB, err := sb.FeasibleWith(nil, qb[i].Prefix, qb[i].Extra)
		if err != nil {
			t.Fatalf("query %d (baseline): %v", i, err)
		}
		if gotA != gotB {
			t.Fatalf("query %d: optimized=%v baseline=%v", i, gotA, gotB)
		}
	}
	st := sa.Stats()
	if st.SlicedQueries == 0 {
		t.Error("no queries were sliced on the runicast stream")
	}
	if st.RewriteHits == 0 {
		t.Error("no constraints were rewritten on the runicast stream")
	}
	if st.GatesElided == 0 {
		t.Error("no elided encoding work was recorded")
	}
	if base := sb.Stats(); st.Gates >= base.Gates {
		t.Errorf("optimized run allocated %d gates, baseline %d — expected fewer",
			st.Gates, base.Gates)
	}
}

// TestOptimizerGateReduction compares the encoding cost of one prefix
// with the optimizer on and off: the rewritten constraints must produce at
// least 2x fewer Tseitin gates (the restoring-division loops behind the
// modulo-window terms become mask wiring).
func TestOptimizerGateReduction(t *testing.T) {
	gates := func(withOpt bool) int64 {
		eb := expr.NewBuilder()
		var opts Options
		if withOpt {
			opts, _ = optimizedOptions(eb)
		}
		s := NewWithOptions(opts)
		x := eb.Var("x", 12)
		var prefix []*expr.Expr
		for i := 0; i < 6; i++ {
			prefix = append(prefix,
				eb.Ult(eb.URem(eb.Add(x, eb.Const(uint64(i+1), 12)), eb.Const(32, 12)),
					eb.Const(31, 12)))
		}
		if ok, err := s.Feasible(prefix); err != nil || !ok {
			t.Fatalf("prefix: ok=%v err=%v", ok, err)
		}
		return s.Stats().Gates
	}
	with, without := gates(true), gates(false)
	if with*2 > without {
		t.Errorf("optimized encode allocated %d gates, baseline %d — want at least 2x fewer", with, without)
	}
}

// TestModelQueriesUnaffectedByOptimizer requires witnesses interleaved with
// feasibility queries to be bit-identical with the optimizer on and off —
// the property that makes optimized runs emit identical test cases.
func TestModelQueriesUnaffectedByOptimizer(t *testing.T) {
	run := func(withOpt bool) []expr.Env {
		eb := expr.NewBuilder()
		var opts Options
		if withOpt {
			opts, _ = optimizedOptions(eb)
		}
		s := NewWithOptions(opts)
		queries := RunicastPrefixQueries(eb, 2, 5)
		var models []expr.Env
		for i, q := range queries {
			if _, err := s.FeasibleWith(nil, q.Prefix, q.Extra); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			// Interleave witnesses the way assert/test-case generation
			// does.
			if i%3 == 0 {
				model, ok, err := s.Witness(append(slices.Clip(q.Prefix), q.Extra))
				if err != nil {
					t.Fatalf("witness %d: %v", i, err)
				}
				if ok {
					models = append(models, model)
				}
			}
		}
		return models
	}
	with, without := run(true), run(false)
	if len(with) != len(without) {
		t.Fatalf("model count diverged: %d with optimizer, %d without", len(with), len(without))
	}
	for i := range with {
		if len(with[i]) != len(without[i]) {
			t.Fatalf("model %d: variable sets diverge: %v vs %v", i, with[i], without[i])
		}
		for name, v := range without[i] {
			if with[i][name] != v {
				t.Fatalf("model %d: %s = %d with optimizer, %d without",
					i, name, with[i][name], v)
			}
		}
	}
}

// TestOptimizerUnsatShortCircuit: cross-constraint substitution exposing
// a contradiction must answer UNSAT without a SAT call.
func TestOptimizerUnsatShortCircuit(t *testing.T) {
	eb := expr.NewBuilder()
	opts, _ := optimizedOptions(eb)
	s := NewWithOptions(opts)
	x := eb.Var("x", 8)
	prefix := []*expr.Expr{eb.Eq(x, eb.Const(3, 8))}
	ok, err := s.FeasibleWith(nil, prefix, eb.Ult(x, eb.Const(2, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("x==3 ∧ x<2 reported feasible")
	}
	if st := s.Stats(); st.SATCalls != 0 {
		t.Errorf("UNSAT-by-rewriting still made %d SAT calls", st.SATCalls)
	}
}
