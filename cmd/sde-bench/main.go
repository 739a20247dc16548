// Command sde-bench regenerates the paper's evaluation artifacts: Table I
// (runtime / states / RAM per state mapping algorithm) and the Figure 10
// state- and memory-growth series for the 25-, 49-, and 100-node grid
// scenarios.
//
// Usage:
//
//	sde-bench                 # full sweep at calibrated laptop scale
//	sde-bench -dims 5,7       # selected grid dimensions
//	sde-bench -packets 10     # paper-scale traffic (slow on one core)
//	sde-bench -table1         # only the 100-node Table I
//
// The -sharded mode compares the parallel schedulers on one grid
// scenario instead: an unsharded run, a static uniform 2^bits pre-split,
// and the adaptive work-stealing scheduler, all at the same worker
// count, with per-run scheduling telemetry (steals, splits, shared
// solver-cache hit rate, worker utilization):
//
//	sde-bench -sharded                        # defaults: 5x5 grid, GOMAXPROCS workers
//	sde-bench -sharded -workers 8 -shard-bits 3
//	sde-bench -sharded -split-bits 4 -split-threshold 2048 -shared-cache=false
//
// The -json mode benchmarks the constraint-solver pipeline on the
// prefix-extension workload (incremental vs from-scratch solving, plus a
// one-layer-at-a-time ablation) and writes machine-readable results:
//
//	sde-bench -json                           # writes BENCH_solver.json
//	sde-bench -json -out results.json -depth 32 -reps 5
//
// -json also benchmarks the query-optimization pipeline (-qopt-out,
// default BENCH_qopt.json), the speculative-fork solver pipeline
// (-spec-out, default BENCH_spec.json; synchronous vs 1/2/4 async
// solver workers on the entangled assume-chain workload), and the
// compiled basic-block fast path (-vm-out, default BENCH_vm.json;
// compiled vs interpreted on a concrete-heavy collect run, with
// optional per-mode CPU profiles via -vm-profile-dir). -spec-workers
// sizes the speculation pool for the table sweeps, and
// -cpuprofile/-memprofile write pprof profiles for any mode.
//
// Long sweeps can be made durable with -checkpoint DIR: every run (and,
// in -sharded mode, every shard of the adaptive schedule) snapshots its
// frontier into its own subdirectory, and re-invoking the same command
// resumes each one from its last snapshot instead of starting over.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"sde"
	"sde/internal/prof"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sde-bench:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	dimsFlag := flag.String("dims", "5,7,10", "comma-separated grid dimensions to evaluate")
	packets := flag.Uint("packets", 0, "packets per run (0 = calibrated default of 3; the paper uses 10)")
	table1 := flag.Bool("table1", false, "run only the 100-node Table I scenario")
	worstCase := flag.Bool("worstcase", false, "run only the §III-E worst-case complexity table")
	wallCap := flag.Duration("wall", 10*time.Minute, "wall-clock cap per run")
	sharded := flag.Bool("sharded", false, "compare the parallel shard schedulers on one grid scenario")
	workers := flag.Int("workers", 0, "worker pool size for -sharded (0 = GOMAXPROCS)")
	shardBits := flag.Int("shard-bits", 2, "static pre-split depth for -sharded (2^bits shards)")
	splitBits := flag.Int("split-bits", 0, "adaptive split depth cap for -sharded (0 = same as -shard-bits)")
	splitThreshold := flag.Int("split-threshold", 0, "live-state straggler threshold for -sharded (0 = default)")
	sharedCache := flag.Bool("shared-cache", true, "share one solver cache across shards in -sharded")
	var layers sde.Layers
	layers.RegisterFlags(flag.CommandLine, "spec-workers")
	jsonBench := flag.Bool("json", false, "run the solver, query-optimizer, and speculation benches and write machine-readable results")
	jsonOut := flag.String("out", "BENCH_solver.json", "output path for -json")
	qoptOut := flag.String("qopt-out", "BENCH_qopt.json", "output path for the -json query-optimizer results")
	specOut := flag.String("spec-out", "BENCH_spec.json", "output path for the -json speculative-pipeline results")
	vmOut := flag.String("vm-out", "BENCH_vm.json", "output path for the -json compiled-fast-path results")
	mergeOut := flag.String("merge-out", "BENCH_merge.json", "output path for the -json state-merging results")
	reduceOut := flag.String("reduce-out", "BENCH_reduce.json", "output path for the -json symmetry-reduction results")
	depthOut := flag.String("depth-out", "BENCH_depth.json", "output path for the -json depth-partitioning results")
	vmProfileDir := flag.String("vm-profile-dir", "", "also write per-mode CPU profiles of the compiled-fast-path bench into this directory")
	jsonDepth := flag.Int("depth", 24, "path-condition depth for -json")
	jsonReps := flag.Int("reps", 3, "repetitions per configuration for -json (best is kept)")
	checkpoint := flag.String("checkpoint", "", "checkpoint directory: make runs durable and resume interrupted ones")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Batch tool: trade GC frequency for throughput on large state sets.
	debug.SetGCPercent(600)

	if err := validateWorkerFlag("-workers", *workers); err != nil {
		return err
	}
	if err := layers.Validate(); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	if *jsonBench {
		if err := runSolverBench(*jsonOut, *jsonDepth, *jsonReps); err != nil {
			return err
		}
		if err := runQoptBench(*qoptOut, *jsonReps); err != nil {
			return err
		}
		if err := runSpecBench(*specOut, *jsonReps); err != nil {
			return err
		}
		if err := runVMBench(*vmOut, *vmProfileDir, *jsonReps); err != nil {
			return err
		}
		if err := runMergeBench(*mergeOut, *jsonReps); err != nil {
			return err
		}
		if err := runReduceBench(*reduceOut, *jsonReps); err != nil {
			return err
		}
		return runDepthBench(*depthOut, *jsonReps)
	}
	if *worstCase {
		return runWorstCase()
	}

	dims, err := parseDims(*dimsFlag)
	if err != nil {
		return err
	}
	if *sharded {
		return runSharded(dims[0], uint32(*packets), *workers, layers.SpecWorkers, *shardBits,
			*splitBits, *splitThreshold, *sharedCache, *wallCap, *checkpoint)
	}
	if *table1 {
		dims = []int{10}
	}

	for _, dim := range dims {
		opts := sde.DefaultEvalOptions(dim)
		if *packets > 0 {
			opts.Packets = uint32(*packets)
		}
		opts.CheckpointDir = *checkpoint
		for algo, caps := range opts.Caps {
			caps.MaxWall = *wallCap
			opts.Caps[algo] = caps
		}
		fmt.Printf("Running %dx%d grid scenario (%d nodes, %d packets)...\n",
			dim, dim, dim*dim, opts.Packets)
		start := time.Now()
		rows, err := sde.RunGridEvaluation(dim, opts)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Table I — %d node scenario with symbolic packet drops", dim*dim)
		if dim != 10 {
			title = fmt.Sprintf("Evaluation — %d node scenario with symbolic packet drops", dim*dim)
		}
		fmt.Println(sde.FormatTable(title, rows))
		if !*table1 {
			fmt.Println(sde.FigureSeries(dim, rows))
		}
		fmt.Printf("(sweep took %v)\n\n", time.Since(start).Round(time.Second))
	}
	return nil
}

// runSharded compares an unsharded run, a static uniform pre-split, and
// the adaptive work-stealing scheduler on the same grid scenario at the
// same worker count.
func runSharded(dim int, packets uint32, workers, specWorkers, shardBits, splitBits, splitThreshold int, sharedCache bool, wallCap time.Duration, checkpoint string) error {
	opts := sde.DefaultEvalOptions(dim)
	if packets > 0 {
		opts.Packets = packets
	}
	scenario, err := sde.GridCollectScenario(sde.GridCollectOptions{
		Dim:       dim,
		Algorithm: sde.SDS,
		Packets:   opts.Packets,
		DropNodes: opts.DropNodes,
	})
	if err != nil {
		return err
	}
	scenario = scenario.WithCaps(sde.Caps{MaxWall: wallCap}).WithSpeculation(specWorkers)
	if shardBits > scenario.MaxShardBits() {
		shardBits = scenario.MaxShardBits()
		fmt.Printf("(clamping -shard-bits to the scenario's %d shardable nodes)\n", shardBits)
	}
	if splitBits <= 0 {
		splitBits = shardBits
	}
	fmt.Printf("Sharded comparison: %dx%d grid, SDS, %d packets\n\n",
		dim, dim, opts.Packets)
	fmt.Printf("%-9s | %10s %8s %7s %7s %7s %11s %6s\n",
		"schedule", "wall", "states", "shards", "steals", "splits", "shared-hit", "util")

	row := func(name string, wall time.Duration, states int, sched sde.SchedStats) {
		shared := "off"
		if sched.SharedLookups > 0 {
			shared = fmt.Sprintf("%.0f%%", 100*sched.SharedHitRate())
		}
		util := "-"
		if len(sched.WorkerBusy) > 0 {
			util = fmt.Sprintf("%.0f%%", 100*sched.MeanUtilization())
		}
		fmt.Printf("%-9s | %10s %8d %7d %7d %7d %11s %6s\n",
			name, wall.Round(time.Millisecond), states,
			sched.Shards, sched.Steals, sched.Splits, shared, util)
	}

	plain, err := sde.RunScenario(scenario)
	if err != nil {
		return err
	}
	row("unsharded", plain.Wall(), plain.States(), sde.SchedStats{Shards: 1})

	static, err := sde.RunScenarioShardedWith(scenario, sde.ShardConfig{
		ShardBits: shardBits,
		Workers:   workers,
	})
	if err != nil {
		return err
	}
	row("static", static.Sched.Elapsed, static.States(), static.Sched)

	adaptive, err := sde.RunScenarioShardedWith(scenario, sde.ShardConfig{
		Workers:           workers,
		MaxSplitBits:      splitBits,
		SplitThreshold:    splitThreshold,
		SharedSolverCache: sharedCache,
		CheckpointDir:     checkpoint,
	})
	if err != nil {
		return err
	}
	row("adaptive", adaptive.Sched.Elapsed, adaptive.States(), adaptive.Sched)

	if static.DScenarios().Cmp(plain.DScenarios()) != 0 ||
		adaptive.DScenarios().Cmp(plain.DScenarios()) != 0 {
		return fmt.Errorf("schedules disagree on dscenario count: unsharded %v static %v adaptive %v",
			plain.DScenarios(), static.DScenarios(), adaptive.DScenarios())
	}
	fmt.Printf("\nAll schedules cover %s dscenarios; violations: %d unsharded, %d static, %d adaptive\n",
		plain.DScenarios(), len(plain.Violations()),
		len(static.Violations()), len(adaptive.Violations()))
	return nil
}

// runWorstCase regenerates the §III-E analysis: the all-branches input on
// k nodes to depth u, comparing the measured COB and SDS state counts with
// the closed forms k*2^(k*u) and k*2^u.
func runWorstCase() error {
	fmt.Println("§III-E worst-case complexity: every instruction of every node branches")
	fmt.Printf("%3s %3s | %12s %12s %7s | %10s %10s %7s\n",
		"k", "u", "COB states", "k*2^(k*u)", "match", "SDS states", "k*2^u", "match")
	for _, tc := range []struct{ k, u int }{
		{1, 2}, {1, 4}, {2, 2}, {2, 3}, {2, 4}, {3, 2}, {3, 3},
	} {
		cobStates, err := runWorstCaseOnce(tc.k, tc.u, sde.COB)
		if err != nil {
			return err
		}
		sdsStates, err := runWorstCaseOnce(tc.k, tc.u, sde.SDS)
		if err != nil {
			return err
		}
		wantCOB := tc.k * (1 << uint(tc.k*tc.u))
		wantSDS := tc.k * (1 << uint(tc.u))
		fmt.Printf("%3d %3d | %12d %12d %7v | %10d %10d %7v\n",
			tc.k, tc.u, cobStates, wantCOB, cobStates == wantCOB,
			sdsStates, wantSDS, sdsStates == wantSDS)
	}
	return nil
}

func runWorstCaseOnce(k, u int, algo sde.Algorithm) (int, error) {
	b := sde.NewProgramBuilder()
	boot := b.Func("boot")
	boot.MovI(sde.R1, 1)
	boot.Timer("step", sde.R1, sde.R0)
	boot.Ret()
	step := b.Func("step")
	step.Sym(sde.R5, "flip", 1)
	step.BrNZ(sde.R5, "cont")
	step.Label("cont")
	step.MovI(sde.R3, 0)
	step.Load(sde.R4, sde.R3, 0x30)
	step.AddI(sde.R4, sde.R4, 1)
	step.Store(sde.R3, 0x30, sde.R4)
	step.UltI(sde.R6, sde.R4, uint32(u))
	step.BrZ(sde.R6, "stop")
	step.MovI(sde.R1, 1)
	step.Timer("step", sde.R1, sde.R0)
	step.Label("stop")
	step.Ret()
	prog, err := b.Build()
	if err != nil {
		return 0, err
	}
	scenario, err := sde.CustomScenario("worst case", sde.CustomConfig{
		Topology:     sde.Line(k),
		Program:      prog,
		Algorithm:    algo,
		HorizonTicks: uint64(u) + 10,
	})
	if err != nil {
		return 0, err
	}
	report, err := sde.RunScenario(scenario)
	if err != nil {
		return 0, err
	}
	return report.States(), nil
}

// validateWorkerFlag rejects negative worker counts with a clear error
// instead of letting them silently fall back to a default downstream.
func validateWorkerFlag(name string, n int) error {
	if n < 0 {
		return fmt.Errorf("%s must be >= 0 (got %d); 0 means one per CPU", name, n)
	}
	return nil
}

func parseDims(s string) ([]int, error) {
	var dims []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := strconv.Atoi(part)
		if err != nil || d < 2 {
			return nil, fmt.Errorf("invalid dimension %q", part)
		}
		dims = append(dims, d)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("no dimensions given")
	}
	return dims, nil
}
