package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"sde/internal/expr"
)

func TestPartitionGroups(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	z := b.Var("z", 8)
	s := New()
	cs := []*expr.Expr{
		b.Ult(x, b.Const(10, 8)), // component {x}
		b.Eq(y, z),               // component {y, z}
		b.Ult(b.Const(1, 8), x),  // joins {x}
		b.Ult(z, b.Const(5, 8)),  // joins {y, z}
	}
	comps := s.partition(cs)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	sizes := []int{len(comps[0]), len(comps[1])}
	if !(sizes[0] == 2 && sizes[1] == 2) {
		t.Errorf("component sizes = %v, want [2 2]", sizes)
	}
}

func TestPartitionBridge(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	s := New()
	cs := []*expr.Expr{
		b.Ult(x, b.Const(10, 8)),
		b.Ult(y, b.Const(10, 8)),
		b.Eq(x, y), // bridges the two
	}
	if comps := s.partition(cs); len(comps) != 1 {
		t.Errorf("bridged set split into %d components", len(comps))
	}
}

func TestPartitionedModelsMerge(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	cs := []*expr.Expr{
		b.Eq(x, b.Const(42, 8)),
		b.Eq(y, b.Const(7, 8)),
	}
	model, sat, err := s.Witness(cs)
	if err != nil || !sat {
		t.Fatalf("sat=%v err=%v", sat, err)
	}
	if model["x"] != 42 || model["y"] != 7 {
		t.Errorf("merged model = %v", model)
	}
	if s.Stats().Partitions == 0 {
		t.Error("independent query did not use partitioning")
	}
}

func TestPartitionedUnsatComponent(t *testing.T) {
	b := expr.NewBuilder()
	s := New()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	cs := []*expr.Expr{
		b.Eq(x, b.Const(1, 8)), // satisfiable component
		b.Ult(y, b.Const(3, 8)),
		b.Ult(b.Const(5, 8), y), // contradicts within {y}
	}
	sat, err := s.Feasible(cs)
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Error("query with an UNSAT component reported SAT")
	}
}

// TestPartitionEquivalence: partitioning on and off must agree on random
// multi-component queries, and so must the witness, whose merged model
// must satisfy the whole set.
func TestPartitionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		b := expr.NewBuilder()
		nVars := 2 + rng.Intn(4)
		vars := make([]*expr.Expr, nVars)
		for i := range vars {
			vars[i] = b.Var(fmt.Sprintf("v%d", i), 5)
		}
		nCons := 1 + rng.Intn(6)
		cs := make([]*expr.Expr, 0, nCons)
		for i := 0; i < nCons; i++ {
			v := vars[rng.Intn(nVars)]
			c := b.Const(rng.Uint64(), 5)
			switch rng.Intn(4) {
			case 0:
				cs = append(cs, b.Eq(v, c))
			case 1:
				cs = append(cs, b.Ult(v, c))
			case 2:
				cs = append(cs, b.Ne(v, c))
			default:
				// Occasionally couple two variables.
				cs = append(cs, b.Ule(v, vars[rng.Intn(nVars)]))
			}
		}
		on := New()
		off := NewWithOptions(Options{DisablePartition: true})
		satOn, err := on.Feasible(cs)
		if err != nil {
			t.Fatal(err)
		}
		satOff, err := off.Feasible(cs)
		if err != nil {
			t.Fatal(err)
		}
		if satOn != satOff {
			t.Fatalf("trial %d: partitioned=%v, monolithic=%v", trial, satOn, satOff)
		}
		model, satW, err := on.Witness(cs)
		if err != nil {
			t.Fatal(err)
		}
		if satW != satOn {
			t.Fatalf("trial %d: witness=%v, feasible=%v", trial, satW, satOn)
		}
		if satW && !satisfies(model, cs) {
			t.Fatalf("trial %d: merged model %v does not satisfy the query", trial, model)
		}
	}
}

func BenchmarkPartitionedTestCaseQueries(b *testing.B) {
	// The shape of distributed test-case generation: a stream of queries
	// (one per dscenario) over k nodes whose per-node constraint
	// components repeat across queries with only one component varying.
	// Partitioning lets the cache answer the repeated components, so a
	// dscenario sweep costs one SAT call per *new* component instead of
	// one per query.
	const nodes = 10
	mk := func() (*expr.Builder, [][]*expr.Expr) {
		eb := expr.NewBuilder()
		perNode := make([][]*expr.Expr, nodes)
		for n := 0; n < nodes; n++ {
			x := eb.Var(fmt.Sprintf("x_n%d", n), 16)
			y := eb.Var(fmt.Sprintf("y_n%d", n), 16)
			perNode[n] = []*expr.Expr{
				eb.Ult(eb.Add(x, y), eb.Const(uint64(900+n), 16)),
				eb.Ult(eb.Const(uint64(n), 16), x),
			}
		}
		var queries [][]*expr.Expr
		for q := 0; q < 32; q++ {
			var cs []*expr.Expr
			for n := 0; n < nodes; n++ {
				cs = append(cs, perNode[n]...)
			}
			// One varying constraint makes each query distinct.
			v := eb.Var(fmt.Sprintf("x_n%d", q%nodes), 16)
			cs = append(cs, eb.Ne(v, eb.Const(uint64(100+q), 16)))
			queries = append(queries, cs)
		}
		return eb, queries
	}
	for _, disabled := range []bool{false, true} {
		name := "partitioned"
		if disabled {
			name = "monolithic"
		}
		b.Run(name, func(b *testing.B) {
			_, queries := mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := NewWithOptions(Options{DisablePartition: disabled})
				for _, q := range queries {
					if sat, err := s.Feasible(q); err != nil || !sat {
						b.Fatal(sat, err)
					}
				}
			}
			b.StopTimer()
		})
	}
}

// TestPartitionFeasibleThenModel is a regression test: a Feasible call
// on a partitioned query once cached a *partial* merged model (the
// literal-scan component contributes no bindings to a verdict), which a
// later model query returned — an env whose missing-means-zero defaults
// can violate the literal constraints. A Witness after Feasible must
// still satisfy the query.
func TestPartitionFeasibleThenModel(t *testing.T) {
	b := expr.NewBuilder()
	d := b.Var("d", 1)
	x := b.Var("x", 8)
	q := []*expr.Expr{
		d,                       // literal component: requires d = 1, zero default violates it
		b.Ult(b.Const(4, 8), x), // arithmetic component
	}
	s := New()
	if sat, err := s.Feasible(q); err != nil || !sat {
		t.Fatalf("Feasible: sat=%v err=%v", sat, err)
	}
	model, sat, err := s.Witness(q)
	if err != nil || !sat {
		t.Fatalf("Witness: sat=%v err=%v", sat, err)
	}
	if !satisfies(model, q) {
		t.Fatalf("Witness returned %v, which does not satisfy the query", model)
	}
}
