package sde_test

// testing.B benchmarks regenerating every table and figure of the paper's
// evaluation (§IV), plus the §III-E worst-case analysis and the §IV-C
// limitation and explosion workloads. Each benchmark reports, next to the
// usual ns/op, the quantities the paper tabulates: final execution states,
// modeled RAM, and represented dscenarios.
//
// Scale note: the workloads use the calibrated laptop-scale defaults of
// DefaultEvalOptions (3 packets instead of the paper's 10; COB state caps
// standing in for the paper's 40 GB memory cap). Absolute numbers differ
// from the paper's Xeon/KLEE setup by construction; the reproduced shape —
// SDS < COW < COB on states, RAM, and runtime, with COB aborting on the
// big scenarios — is asserted by the test suite and visible in the
// reported metrics. cmd/sde-bench runs the same sweeps with tunable scale;
// timings to compare across commits come from bench/ (bash bench/run.sh),
// which checks digests and corrects for host drift, not from here.

import (
	"fmt"
	"math/big"
	"testing"
	"time"

	"sde"
	"sde/internal/trace"
)

// reportRow attaches the paper's Table I columns to a benchmark.
func reportRow(b *testing.B, rep *sde.Report) {
	b.Helper()
	b.ReportMetric(float64(rep.States()), "states")
	b.ReportMetric(float64(rep.MemBytes())/(1<<20), "modelMiB")
	f, _ := new(big.Float).SetInt(rep.DScenarios()).Float64()
	b.ReportMetric(f, "dscenarios")
}

// benchGrid runs one (dim, algorithm) grid scenario per iteration.
func benchGrid(b *testing.B, dim int, algo sde.Algorithm) {
	opts := sde.DefaultEvalOptions(dim)
	scenario, err := sde.GridCollectScenario(sde.GridCollectOptions{
		Dim:          dim,
		Algorithm:    algo,
		Packets:      opts.Packets,
		DropNodes:    opts.DropNodes,
		MaxDropNodes: opts.MaxDropNodes,
		Caps:         opts.Caps[algo],
	})
	if err != nil {
		b.Fatal(err)
	}
	var rep *sde.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = sde.RunScenario(scenario)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportRow(b, rep)
	if aborted, reason := rep.Aborted(); aborted {
		b.Logf("%v on %d nodes aborted (as in the paper's Table I): %s",
			algo, dim*dim, reason)
	}
}

// BenchmarkTable1 regenerates Table I: the 100-node (10x10) grid scenario
// with symbolic packet drops, one row per state mapping algorithm. COB
// hits its resource cap and is reported aborted, as in the paper.
func BenchmarkTable1(b *testing.B) {
	for _, algo := range sde.Algorithms {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) { benchGrid(b, 10, algo) })
	}
}

// BenchmarkFig10 regenerates the Figure 10 runs. Each (size, algorithm)
// run produces both the state-growth and the memory-growth series of the
// corresponding sub-figure pair: 25 nodes -> 10(a,b), 49 -> 10(c,d),
// 100 -> 10(e,f). The time series themselves are printed by cmd/sde-bench;
// here the end points are reported as metrics.
func BenchmarkFig10(b *testing.B) {
	for _, dim := range []int{5, 7, 10} {
		dim := dim
		b.Run(fmt.Sprintf("%dnodes", dim*dim), func(b *testing.B) {
			for _, algo := range sde.Algorithms {
				algo := algo
				b.Run(algo.String(), func(b *testing.B) { benchGrid(b, dim, algo) })
			}
		})
	}
}

// BenchmarkFigure1Explore regenerates Figure 1: regular symbolic
// execution of the four-path program with one test case per path.
func BenchmarkFigure1Explore(b *testing.B) {
	mk := func() *sde.Program {
		pb := sde.NewProgramBuilder()
		f := pb.Func("main")
		f.Sym(sde.R1, "x", 32)
		f.EqI(sde.R2, sde.R1, 0)
		f.BrNZ(sde.R2, "path1")
		f.UltI(sde.R2, sde.R1, 50)
		f.BrZ(sde.R2, "path4")
		f.UltI(sde.R2, sde.R1, 11)
		f.BrNZ(sde.R2, "path3")
		f.MovI(sde.R3, 2)
		f.Ret()
		f.Label("path1")
		f.MovI(sde.R3, 1)
		f.Ret()
		f.Label("path3")
		f.MovI(sde.R3, 3)
		f.Ret()
		f.Label("path4")
		f.MovI(sde.R3, 4)
		f.Ret()
		prog, err := pb.Build()
		if err != nil {
			b.Fatal(err)
		}
		return prog
	}
	prog := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sde.Explore(prog, "main", sde.ExploreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Paths) != 4 {
			b.Fatalf("paths = %d, want 4", len(rep.Paths))
		}
	}
}

// BenchmarkWorstCaseCOB regenerates the §III-E worst-case analysis: the
// all-branches program on k nodes to depth u costs COB Theta(k * 2^(k*u))
// states; the reported metric must match the closed form exactly.
func BenchmarkWorstCaseCOB(b *testing.B) {
	for _, tc := range []struct{ k, u int }{{2, 2}, {2, 3}, {3, 2}} {
		tc := tc
		b.Run(fmt.Sprintf("k%d_u%d", tc.k, tc.u), func(b *testing.B) {
			prog := worstCaseProgram(b, uint32(tc.u))
			scenario, err := sde.CustomScenario("worst case", sde.CustomConfig{
				Topology:     sde.Line(tc.k),
				Program:      prog,
				Algorithm:    sde.COB,
				HorizonTicks: uint64(tc.u) + 10,
			})
			if err != nil {
				b.Fatal(err)
			}
			var rep *sde.Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err = sde.RunScenario(scenario)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			want := tc.k * (1 << uint(tc.k*tc.u))
			if rep.States() != want {
				b.Fatalf("states = %d, want k*2^(k*u) = %d", rep.States(), want)
			}
			reportRow(b, rep)
		})
	}
}

// BenchmarkWorstCaseSDS is the ablation partner of BenchmarkWorstCaseCOB:
// the same worst-case input under SDS needs only k * 2^u states (§III-B:
// without communication a single dstate suffices).
func BenchmarkWorstCaseSDS(b *testing.B) {
	const k, u = 3, 3
	prog := worstCaseProgram(b, u)
	scenario, err := sde.CustomScenario("worst case", sde.CustomConfig{
		Topology:     sde.Line(k),
		Program:      prog,
		Algorithm:    sde.SDS,
		HorizonTicks: u + 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	var rep *sde.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = sde.RunScenario(scenario)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if want := k * (1 << u); rep.States() != want {
		b.Fatalf("states = %d, want k*2^u = %d", rep.States(), want)
	}
	reportRow(b, rep)
}

// BenchmarkMeshFlood regenerates the §IV-C limitation discussion: a
// full-mesh flooding workload in which the bystander-saving structure of
// COW/SDS collapses and all algorithms hold comparable state counts.
func BenchmarkMeshFlood(b *testing.B) {
	for _, algo := range sde.Algorithms {
		algo := algo
		b.Run(algo.String(), func(b *testing.B) {
			scenario, err := sde.FloodScenario(sde.FloodOptions{
				K:         5,
				Algorithm: algo,
				Packets:   1,
				DropAll:   true,
				Caps:      sde.Caps{MaxStates: 500000},
			})
			if err != nil {
				b.Fatal(err)
			}
			var rep *sde.Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err = sde.RunScenario(scenario)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportRow(b, rep)
		})
	}
}

// BenchmarkSymbolicData measures the §II-A symbolic-packet-header
// workload: a symbolic sensor reading propagating through a line with
// constraint inheritance and implied-branch pruning at every hop.
func BenchmarkSymbolicData(b *testing.B) {
	scenario, err := sde.ThresholdScenario(sde.ThresholdOptions{K: 6})
	if err != nil {
		b.Fatal(err)
	}
	var rep *sde.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = sde.RunScenario(scenario)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportRow(b, rep)
}

// BenchmarkExplode regenerates the §IV-C test-case generation cost: the
// compact SDS representation is exploded into dscenarios and one concrete
// test case is solved per dscenario, incrementally.
func BenchmarkExplode(b *testing.B) {
	scenario, err := sde.GridCollectScenario(sde.GridCollectOptions{
		Dim:       5,
		Algorithm: sde.SDS,
		Packets:   3,
		DropNodes: sde.DropRoute,
	})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := sde.RunScenario(scenario)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		n := 0
		err := rep.StreamTestCases(0, func(tc trace.TestCase) error {
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		total = n
	}
	b.StopTimer()
	b.ReportMetric(float64(total), "testcases")
	if int64(total) != rep.DScenarios().Int64() {
		b.Fatalf("generated %d test cases for %v dscenarios", total, rep.DScenarios())
	}
}

// worstCaseProgram builds the §III-E all-branches input: one fresh
// symbolic branch per node per level.
func worstCaseProgram(b *testing.B, u uint32) *sde.Program {
	b.Helper()
	pb := sde.NewProgramBuilder()
	boot := pb.Func("boot")
	boot.MovI(sde.R1, 1)
	boot.Timer("step", sde.R1, sde.R0)
	boot.Ret()
	step := pb.Func("step")
	step.Sym(sde.R5, "flip", 1)
	step.BrNZ(sde.R5, "cont")
	step.Label("cont")
	step.MovI(sde.R3, 0)
	step.Load(sde.R4, sde.R3, 0x30)
	step.AddI(sde.R4, sde.R4, 1)
	step.Store(sde.R3, 0x30, sde.R4)
	step.UltI(sde.R6, sde.R4, u)
	step.BrZ(sde.R6, "stop")
	step.MovI(sde.R1, 1)
	step.Timer("step", sde.R1, sde.R0)
	step.Label("stop")
	step.Ret()
	prog, err := pb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// benchElapsed guards against pathological regressions in the harness
// itself: the laptop-scale Table I sweep must stay within minutes.
func TestBenchScaleSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	start := time.Now()
	opts := sde.DefaultEvalOptions(5)
	if _, err := sde.RunGridEvaluation(5, opts); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Minute {
		t.Errorf("25-node sweep took %v; the calibrated scale should stay in seconds", elapsed)
	}
}

// BenchmarkShardedSkewed compares static uniform sharding against the
// adaptive work-stealing scheduler on a skewed workload at equal worker
// count. The dscenario space is dominated by the all-delivered corner
// (every reception forks a chain of symbolic branches; every drop
// silences a receiver), so a uniform 2^3 pre-split wastes seven cheap
// shards' worth of engine setup and re-execution while one shard does
// nearly all the work. The adaptive run starts from a single coarse
// shard and only subdivides what the pool observes to be heavy, with
// the cross-shard solver cache absorbing the re-executed prefix work —
// lower makespan from strictly less total work.
func BenchmarkShardedSkewed(b *testing.B) {
	const workers = 4
	scenario := skewedScenario(b, 4, 6, sde.SDS)
	ref, err := sde.RunScenario(scenario)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  sde.ShardConfig
	}{
		{"static", sde.ShardConfig{ShardBits: 3, Workers: workers}},
		{"adaptive", sde.ShardConfig{
			Workers:           workers,
			MaxSplitBits:      3,
			SplitThreshold:    150,
			SharedSolverCache: true,
		}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var rep *sde.ShardedReport
			for i := 0; i < b.N; i++ {
				rep, err = sde.RunScenarioShardedWith(scenario, tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Both schedules must explore exactly the unsharded space.
			if rep.DScenarios().Cmp(ref.DScenarios()) != 0 {
				b.Fatalf("dscenarios = %v, want %v", rep.DScenarios(), ref.DScenarios())
			}
			b.ReportMetric(float64(rep.Sched.Elapsed.Microseconds())/float64(b.N), "makespan-us")
			b.ReportMetric(float64(rep.Sched.Shards), "shards")
			b.ReportMetric(float64(rep.Sched.Splits), "splits")
			b.ReportMetric(float64(rep.States()), "states")
			b.ReportMetric(100*rep.Sched.SharedHitRate(), "shared-hit-%")
		})
	}
}
