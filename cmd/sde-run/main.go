// Command sde-run executes one SDE scenario and prints its report:
// resource usage, represented dscenarios, assertion violations with
// concrete witnesses, and (optionally) generated test cases.
//
// Usage:
//
//	sde-run -topo grid:5 -algo sds -packets 3 -drops route
//	sde-run -topo line:4 -algo cow -failures dup:0 -testcases 8
//	sde-run -topo mesh:4 -app flood -algo sds
//
// Long runs can be made durable with -checkpoint DIR (periodic frontier
// snapshots plus a progress journal) and continued after a crash with
// -resume DIR; a resumed run is bit-identical to an uninterrupted one.
// Periodic checkpoints are cost-paced — at most 1/8 of the time spent
// exploring — and the report says how many were written, how many grid
// boundaries were passed over, and how long they took.
//
// After the summary comes one line per layer that did anything — vm,
// solver, spec, checkpoints — with that layer's counters (sde.RunStats;
// -json carries the same value under "stats").
//
// The optional execution layers are switched with -compile and
// -speculate (run on past a symbolic branch and decide it at the next
// send, assert or handler end, on the run's one solver); each preserves
// the output bit for bit, and if a run ever looks wrong that is the order
// to flip them in (sde.Layers).
// -cpuprofile/-memprofile write pprof profiles for the whole run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"

	"sde"
	"sde/internal/prof"
	"sde/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sde-run:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	topoFlag := flag.String("topo", "grid:5", "topology: grid:<dim>, line:<k>, or mesh:<k>")
	appFlag := flag.String("app", "collect",
		"application: collect, flood, discovery, runicast, or threshold")
	algoFlag := flag.String("algo", "sds", "state mapping algorithm: cob, cow, or sds")
	packets := flag.Uint("packets", 3, "packets emitted by the source")
	drops := flag.String("drops", "route", "symbolic drop nodes: route, route+neighbors, none")
	failures := flag.String("failures", "", "extra failures, e.g. dup:0,reboot:3 (node ids)")
	maxStates := flag.Int("max-states", 0, "abort when live states exceed this (0 = unlimited)")
	testcases := flag.Int("testcases", 0, "generate up to N concrete test cases")
	replay := flag.Bool("replay", false, "replay each violation's witness and report reproduction")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of text")
	analysis := flag.Bool("analysis", false, "print the state-population analysis block")
	checkpoint := flag.String("checkpoint", "", "write periodic durable checkpoints into this directory")
	resume := flag.String("resume", "", "resume from the checkpoint in this directory (or start fresh into it)")
	var layers sde.Layers
	layers.RegisterFlags(flag.CommandLine)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	debug.SetGCPercent(600)

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	// The flags assemble a ScenarioSpec — the same declarative form the
	// exploration service's job API accepts — so the CLI and the service
	// materialise scenarios through one code path.
	spec := sde.ScenarioSpec{
		Workload:  *appFlag,
		Topology:  *topoFlag,
		Algorithm: *algoFlag,
		Packets:   uint32(*packets),
		Drops:     *drops,
		Failures:  *failures,
		MaxStates: *maxStates,
		Layers:    layers,
	}
	scenario, err := spec.Scenario()
	if err != nil {
		return err
	}
	// The compiler's static taint pass knows which branches depend on
	// symbolic input. If the program has such candidate shard points but
	// the scenario declares no shardable drop nodes, a sharded run could
	// not partition the space at all — worth a heads-up. The note itself
	// lives on Scenario so the exploration service surfaces the same
	// warning for ScenarioSpec-submitted jobs.
	if note := scenario.ShardabilityNote(); note != "" {
		fmt.Fprintf(os.Stderr, "sde-run: note: %s\n", note)
		if scenario.MaxShardBits() == 0 {
			// Zero shardable bits caps a multi-worker sharded or
			// distributed run at one lease: only a depth horizon
			// (ShardConfig.DepthHorizon / the job API's depth_horizon)
			// could spread it across a pool or fleet.
			fmt.Fprintln(os.Stderr, "sde-run: note: with 0 shardable bits a multi-worker run would sit idle; depth-horizon partitioning (depth_horizon in the job API, DepthHorizon in ShardConfig) fans deep exploration out instead")
		}
	}
	if *checkpoint != "" && *resume != "" {
		return fmt.Errorf("-checkpoint and -resume are mutually exclusive (resume already checkpoints)")
	}
	if !*jsonOut {
		fmt.Println("Scenario:", scenario.Description())
	}
	var report *sde.Report
	switch {
	case *resume != "":
		report, err = sde.Resume(scenario, *resume)
	case *checkpoint != "":
		report, err = sde.Checkpoint(scenario, *checkpoint)
	default:
		report, err = sde.RunScenario(scenario)
	}
	if err != nil {
		return err
	}
	if *jsonOut {
		return report.WriteJSON(os.Stdout, *testcases)
	}
	if report.Resumed() {
		fmt.Println("resumed from checkpoint:", *resume)
	}
	fmt.Println(report.Summary())
	if *analysis {
		fmt.Print(report.Analysis())
	}
	fmt.Printf("instructions=%d groups=%d peak-mem=%d\n",
		report.Instructions(), report.Groups(), report.PeakMemBytes())
	final, peak := report.MemTerms(), report.PeakMemTerms()
	fmt.Printf("mem-terms: final pages=%d overhead=%d", final.Pages, final.Overhead)
	if peak != (sde.MemTerms{}) { // unknown when the peak predates a resume
		fmt.Printf(" | peak pages=%d overhead=%d", peak.Pages, peak.Overhead)
	}
	fmt.Println()
	fmt.Print(report.Stats()) // what each layer did, one line per layer that did anything

	for _, v := range report.Violations() {
		fmt.Printf("VIOLATION node=%d t=%d: %s\n  witness: %v\n", v.Node, v.Time, v.Msg, v.Model)
		if *replay {
			ok, _, err := report.ReplayViolation(v)
			if err != nil {
				return err
			}
			fmt.Printf("  replay reproduces: %v\n", ok)
		}
	}
	if *testcases > 0 {
		fmt.Printf("test cases (first %d of %s dscenarios):\n", *testcases, report.DScenarios())
		err := report.StreamTestCases(*testcases, func(tc trace.TestCase) error {
			fmt.Println(" ", tc.String())
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
