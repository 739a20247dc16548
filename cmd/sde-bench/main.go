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
//	sde-bench -worstcase      # §III-E closed forms next to measured state counts
//
// The -sharded mode compares the parallel schedulers on one grid
// scenario instead: an unsharded run, a static uniform 2^bits pre-split,
// and the adaptive work-stealing scheduler, all at the same worker
// count, with per-run scheduling telemetry (steals, splits, worker
// utilization):
//
//	sde-bench -sharded                        # defaults: 5x5 grid, GOMAXPROCS workers
//	sde-bench -sharded -workers 8 -shard-bits 3
//	sde-bench -sharded -split-bits 4 -split-threshold 2048
//
// -cpuprofile/-memprofile write pprof profiles for any mode. Performance
// numbers for the system and its layers come from bench/ (bash
// bench/run.sh), not from this command.
//
// Long sweeps can be made durable with -checkpoint DIR: every run (and,
// in -sharded mode, every shard of the adaptive schedule) snapshots its
// frontier into its own subdirectory, and re-invoking the same command
// resumes each one from its last snapshot instead of starting over.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"sde"
	"sde/internal/prof"
)

func main() {
	// Batch tool: trade GC frequency for throughput on large state sets.
	debug.SetGCPercent(600)

	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "sde-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("sde-bench", flag.ContinueOnError)
	fs.SetOutput(stdout) // -h prints the flag list where the tables go
	dimsFlag := fs.String("dims", "5,7,10", "comma-separated grid dimensions to evaluate")
	packets := fs.Uint("packets", 0, "packets per run (0 = calibrated default of 3; the paper uses 10)")
	table1 := fs.Bool("table1", false, "run only the 100-node Table I scenario")
	worstCase := fs.Bool("worstcase", false, "run only the §III-E worst-case complexity table")
	wallCap := fs.Duration("wall", 10*time.Minute, "wall-clock cap per run")
	sharded := fs.Bool("sharded", false, "compare the parallel shard schedulers on one grid scenario")
	workers := fs.Int("workers", 0, "worker pool size for -sharded (0 = GOMAXPROCS)")
	shardBits := fs.Int("shard-bits", 2, "static pre-split depth for -sharded (2^bits shards)")
	splitBits := fs.Int("split-bits", 0, "adaptive split depth cap for -sharded (0 = same as -shard-bits)")
	splitThreshold := fs.Int("split-threshold", 0, "live-state straggler threshold for -sharded (0 = default)")
	checkpoint := fs.String("checkpoint", "", "checkpoint directory: make runs durable and resume interrupted ones")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateWorkerFlag("-workers", *workers); err != nil {
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

	if *worstCase {
		return runWorstCase(stdout)
	}

	dims, err := parseDims(*dimsFlag)
	if err != nil {
		return err
	}
	if *sharded {
		return runSharded(stdout, dims[0], uint32(*packets), *workers, *shardBits,
			*splitBits, *splitThreshold, *wallCap, *checkpoint)
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
		fmt.Fprintf(stdout, "Running %dx%d grid scenario (%d nodes, %d packets)...\n",
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
		fmt.Fprintln(stdout, sde.FormatTable(title, rows))
		if !*table1 {
			fmt.Fprintln(stdout, sde.FigureSeries(dim, rows))
		}
		fmt.Fprintf(stdout, "(sweep took %v)\n\n", time.Since(start).Round(time.Second))
	}
	return nil
}

// runSharded compares an unsharded run, a static uniform pre-split, and
// the adaptive work-stealing scheduler on the same grid scenario at the
// same worker count.
func runSharded(stdout io.Writer, dim int, packets uint32, workers, shardBits, splitBits, splitThreshold int, wallCap time.Duration, checkpoint string) error {
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
	scenario = scenario.WithCaps(sde.Caps{MaxWall: wallCap})
	if shardBits > scenario.MaxShardBits() {
		shardBits = scenario.MaxShardBits()
		fmt.Fprintf(stdout, "(clamping -shard-bits to the scenario's %d shardable nodes)\n", shardBits)
	}
	if splitBits <= 0 {
		splitBits = shardBits
	}
	fmt.Fprintf(stdout, "Sharded comparison: %dx%d grid, SDS, %d packets\n\n",
		dim, dim, opts.Packets)
	fmt.Fprintf(stdout, "%-9s | %10s %8s %7s %7s %7s %6s\n",
		"schedule", "wall", "states", "shards", "steals", "splits", "util")

	row := func(name string, wall time.Duration, states int, sched sde.SchedStats) {
		util := "-"
		if len(sched.WorkerBusy) > 0 {
			util = fmt.Sprintf("%.0f%%", 100*sched.MeanUtilization())
		}
		fmt.Fprintf(stdout, "%-9s | %10s %8d %7d %7d %7d %6s\n",
			name, wall.Round(time.Millisecond), states,
			sched.Shards, sched.Steals, sched.Splits, util)
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
		Workers:        workers,
		MaxSplitBits:   splitBits,
		SplitThreshold: splitThreshold,
		CheckpointDir:  checkpoint,
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
	fmt.Fprintf(stdout, "\nAll schedules cover %s dscenarios; violations: %d unsharded, %d static, %d adaptive\n",
		plain.DScenarios(), len(plain.Violations()),
		len(static.Violations()), len(adaptive.Violations()))
	return nil
}

// runWorstCase regenerates the §III-E analysis: the all-branches input on
// k nodes to depth u, comparing the measured COB and SDS state counts with
// the closed forms k*2^(k*u) and k*2^u.
func runWorstCase(stdout io.Writer) error {
	fmt.Fprintln(stdout, "§III-E worst-case complexity: every instruction of every node branches")
	fmt.Fprintf(stdout, "%3s %3s | %12s %12s %7s | %10s %10s %7s\n",
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
		fmt.Fprintf(stdout, "%3d %3d | %12d %12d %7v | %10d %10d %7v\n",
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
