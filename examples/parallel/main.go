// Parallel: the paper's §VI future-work item — "we plan to parallelize
// SDE's implementation ... we have to identify the sets of states which
// can be safely offloaded on other cores and thus can be independently
// executed."
//
// The unit of independence here is a partition of the dscenario space:
// pinning the drop decisions of nodes that are guaranteed to receive (the
// source's radio neighbours) splits the exploration into disjoint
// sub-spaces that run on fully independent engines, concurrently. The
// shard union covers exactly the unsharded exploration.
package main

import (
	"fmt"
	"log"

	"sde"
)

func main() {
	scenario, err := sde.GridCollectScenario(sde.GridCollectOptions{
		Dim:       4,
		Algorithm: sde.SDS,
		Packets:   3,
		DropNodes: sde.DropRouteAndNeighbors,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Scenario:", scenario.Description())
	fmt.Printf("Shardable failure decisions: %d (up to %d shards)\n\n",
		scenario.MaxShardBits(), 1<<scenario.MaxShardBits())

	reference, err := sde.RunScenario(scenario)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unsharded: states=%-6d dscenarios=%s wall=%v\n",
		reference.States(), reference.DScenarios(), reference.Wall())

	for _, bits := range []int{1, 2} {
		sharded, err := sde.RunScenarioSharded(scenario, bits)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d shards:  states=%-6d dscenarios=%s makespan=%v\n",
			len(sharded.Shards), sharded.States(), sharded.DScenarios(), sharded.Wall())
		if sharded.DScenarios().Cmp(reference.DScenarios()) != 0 {
			log.Fatal("shard union does not cover the unsharded space")
		}
		for _, sh := range sharded.Shards {
			fmt.Printf("   shard %d pins %v -> %d states\n",
				sh.Shard, sh.Pin, sh.Report.States())
		}
	}

	// A fixed partition on a bounded pool: 2^MaxShardBits pre-split
	// shards drain through four workers, and the run's shared solver cache
	// lets each shard reuse the verdicts of queries another already answered
	// (this grid workload branches on no symbolic data, so the cache
	// reports shared-hit=off). The leaves, and so the report, depend on
	// the partition only — not on the worker count or on which worker ran
	// which shard.
	pooled, err := sde.RunScenarioShardedWith(scenario, sde.ShardConfig{
		ShardBits: scenario.MaxShardBits(),
		Workers:   4,
	})
	if err != nil {
		log.Fatal(err)
	}
	if pooled.DScenarios().Cmp(reference.DScenarios()) != 0 {
		log.Fatal("pooled union does not cover the unsharded space")
	}
	fmt.Printf("\npooled:    states=%-6d dscenarios=%s makespan=%v\n",
		pooled.States(), pooled.DScenarios(), pooled.Sched.Elapsed)
	fmt.Println("telemetry:", pooled.Sched)

	fmt.Println("\nEvery sharding covers the identical dscenario space; shards trade")
	fmt.Println("some state sharing (their totals exceed the unsharded count) for")
	fmt.Println("embarrassing parallelism across cores.")
}
