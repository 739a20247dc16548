package solver

import (
	"fmt"
	"slices"
	"testing"

	"sde/internal/expr"
	"sde/internal/qopt"
)

// branchQueries builds the query stream a symbolic executor generates: a
// growing path condition re-checked with one new condition at a time.
func branchQueries(b *expr.Builder, depth int) [][]*expr.Expr {
	x := b.Var("x", 32)
	var pc []*expr.Expr
	var queries [][]*expr.Expr
	for i := 0; i < depth; i++ {
		c := b.Ult(x, b.Const(uint64(1000-i), 32))
		queries = append(queries, append(append([]*expr.Expr{}, pc...), c))
		pc = append(pc, c)
	}
	return queries
}

func BenchmarkBranchFeasibility(b *testing.B) {
	for _, opts := range []struct {
		name string
		o    Options
	}{
		{"full", Options{}},
		{"noCache", Options{DisableCache: true}},
		{"noPool", Options{DisablePool: true}},
		{"noCacheNoPool", Options{DisableCache: true, DisablePool: true}},
	} {
		opts := opts
		b.Run(opts.name, func(b *testing.B) {
			eb := expr.NewBuilder()
			queries := branchQueries(eb, 24)
			s := NewWithOptions(opts.o)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if ok, err := s.Feasible(q); err != nil || !ok {
						b.Fatalf("query failed: ok=%v err=%v", ok, err)
					}
				}
			}
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(float64(st.SATCalls)/float64(b.N), "satcalls/op")
		})
	}
}

// BenchmarkLiteralScan measures the drop-decision fast path that dominates
// sensornet scenarios, against the full SAT pipeline.
func BenchmarkLiteralScan(b *testing.B) {
	for _, fast := range []bool{true, false} {
		name := "fastpath"
		if !fast {
			name = "satcore"
		}
		b.Run(name, func(b *testing.B) {
			eb := expr.NewBuilder()
			var cs []*expr.Expr
			for i := 0; i < 12; i++ {
				v := eb.Var(fmt.Sprintf("drop_%d", i), 1)
				if i%2 == 0 {
					cs = append(cs, v)
				} else {
					cs = append(cs, eb.Not(v))
				}
			}
			s := NewWithOptions(Options{
				DisableFastPath: !fast,
				DisableCache:    true, // isolate per-query cost
				DisablePool:     true,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, err := s.Feasible(cs); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	}
}

func BenchmarkBitBlastMul(b *testing.B) {
	for _, width := range []int{8, 16, 32} {
		width := width
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			eb := expr.NewBuilder()
			x := eb.Var("x", width)
			y := eb.Var("y", width)
			q := []*expr.Expr{eb.Eq(eb.Mul(x, y), eb.Const(143, width))}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := NewWithOptions(Options{DisableCache: true, DisablePool: true})
				if ok, err := s.Feasible(q); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	}
}

// BenchmarkPrefixExtension replays the shared prefix-extension workload
// (see PrefixExtensionQueries) on the persistent incremental instance
// versus from-scratch solving. Every other pipeline layer is disabled in
// incremental, so the comparison isolates assumption-based solving + the
// persistent blast context; witness solves each entry as
// Witness(prefix ∧ extra), which bit-blasts it on a fresh instance (a
// path condition is one component, so its memo never answers).
//
// runicast replays the runicast prefix stream (see RunicastPrefixQueries)
// with partitioning on: the reconcile shape, many small variable-disjoint
// components decided on one growing instance, where restricting each solve
// to its query's cone is what the persistent instance gains. In
// incremental, by contrast, one path's cone is nearly the whole instance.
func BenchmarkPrefixExtension(b *testing.B) {
	base := Options{
		DisableCache:       true,
		DisablePool:        true,
		DisableFastPath:    true,
		DisablePartition:   true,
		DisableSubsumption: true,
	}
	partitioned := base
	partitioned.DisablePartition = false
	prefix := func(eb *expr.Builder) []PrefixQuery { return PrefixExtensionQueries(eb, 24) }
	feasible := func(s *Solver, q PrefixQuery) error {
		_, err := s.FeasibleWith(nil, q.Prefix, q.Extra)
		return err
	}
	witness := func(s *Solver, q PrefixQuery) error {
		_, _, err := s.Witness(append(slices.Clip(q.Prefix), q.Extra))
		return err
	}
	for _, mode := range []struct {
		name    string
		opts    Options
		queries func(*expr.Builder) []PrefixQuery
		solve   func(*Solver, PrefixQuery) error
	}{
		{"incremental", base, prefix, feasible},
		{"witness", Options{}, prefix, witness},
		{"runicast", partitioned, func(eb *expr.Builder) []PrefixQuery { return RunicastPrefixQueries(eb, 6, 8) }, feasible},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			eb := expr.NewBuilder()
			queries := mode.queries(eb)
			var last Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := NewWithOptions(mode.opts)
				for j, q := range queries {
					if err := mode.solve(s, q); err != nil {
						b.Fatalf("query %d: %v", j, err)
					}
				}
				last = s.Stats()
			}
			b.StopTimer()
			b.ReportMetric(float64(last.SATCalls), "satcalls/op")
			b.ReportMetric(float64(last.Conflicts), "conflicts/op")
			b.ReportMetric(float64(last.Gates), "gates/op")
		})
	}
}

// BenchmarkModelGeneration solves one arithmetic witness on a fresh
// Solver per pass.
func BenchmarkModelGeneration(b *testing.B) {
	eb := expr.NewBuilder()
	x := eb.Var("x", 32)
	y := eb.Var("y", 32)
	q := []*expr.Expr{
		eb.Eq(eb.Add(x, y), eb.Const(1000, 32)),
		eb.Ult(x, y),
		eb.Ult(eb.Const(10, 32), x),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, ok, err := New().Witness(q)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
		if (model["x"]+model["y"])&0xffffffff != 1000 {
			b.Fatalf("bad model: %v", model)
		}
	}
}

// BenchmarkModelQueryStream is a stream of reconcile-shaped witnesses
// (see ReconcileModelQuery), 256 distinct constants, each on a fresh Solver
// so its witness memo never answers: every iteration bit-blasts and
// searches one from-scratch instance, the path every witness and test case
// takes. A unit reading of that layer; the end-to-end number is bench/'s
// reconcile wall_s.
func BenchmarkModelQueryStream(b *testing.B) {
	eb := expr.NewBuilder()
	queries := make([][]*expr.Expr, 256)
	for i := range queries {
		queries[i] = ReconcileModelQuery(eb, uint64(i)<<12|0x55)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		model, ok, err := New().Witness(q)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
		if model["ts_a"] <= model["ts_b"] {
			b.Fatalf("bad model: %v", model)
		}
	}
}

// BenchmarkQueryOptimizer is the query-optimization pipeline's acceptance
// benchmark: the runicast prefix stream (see RunicastPrefixQueries)
// replayed with the full optimizer, with one stage ablated at a time, and
// with the optimizer off. The caching layers are disabled in every mode
// so the comparison isolates what the optimizer saves per encoded query.
func BenchmarkQueryOptimizer(b *testing.B) {
	base := Options{
		DisableCache:       true,
		DisablePool:        true,
		DisableFastPath:    true,
		DisablePartition:   true,
		DisableSubsumption: true,
	}
	for _, mode := range []struct {
		name      string
		optimized bool
		mutate    func(*Options)
	}{
		{"optimized", true, nil},
		{"no-slicing", true, func(o *Options) { o.DisableSlicing = true }},
		{"no-rewrite", true, func(o *Options) { o.DisableRewrite = true }},
		{"unoptimized", false, nil},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			eb := expr.NewBuilder()
			queries := RunicastPrefixQueries(eb, 4, 8)
			var last Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := base
				if mode.optimized {
					opts.Optimizer = qopt.New(eb)
				}
				if mode.mutate != nil {
					mode.mutate(&opts)
				}
				s := NewWithOptions(opts)
				for j, q := range queries {
					if _, err := s.FeasibleWith(nil, q.Prefix, q.Extra); err != nil {
						b.Fatalf("query %d: %v", j, err)
					}
				}
				last = s.Stats()
			}
			b.StopTimer()
			b.ReportMetric(float64(last.Gates), "gates/op")
			b.ReportMetric(float64(last.SATCalls), "satcalls/op")
			b.ReportMetric(float64(last.SlicedQueries), "sliced/op")
			b.ReportMetric(float64(last.GatesElided), "gateselided/op")
		})
	}
}
