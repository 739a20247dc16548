package sde_test

// Public checkpoint/resume API: sde.Checkpoint, sde.Resume, and sharded
// resume through ShardConfig.CheckpointDir. The sim-level kill-and-resume
// tests cover mid-run interruption; here we exercise the plumbing — a
// resumed run reproduces the original, Resume falls back to a fresh run
// when no checkpoint exists, and a sharded rerun picks leaves back up
// from their per-shard checkpoints (with a different worker count).

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sde"
)

func TestCheckpointResume(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)

	// Resume with no checkpoint on disk degrades to a fresh run.
	freshDir := t.TempDir()
	fresh, err := sde.Resume(scenario, freshDir)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Resumed() {
		t.Error("Resume on an empty directory reported Resumed")
	}

	// A checkpointed run leaves a final snapshot; resuming it replays
	// zero events and reproduces the result exactly. This is what makes
	// `sde.Resume` safe to call unconditionally in a crash-restart loop.
	dir := t.TempDir()
	ref, err := sde.Checkpoint(scenario, dir)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Resumed() {
		t.Error("first checkpointed run reported Resumed")
	}
	resumed, err := sde.Resume(scenario, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed() {
		t.Fatal("Resume with a checkpoint on disk did not resume")
	}
	if resumed.States() != ref.States() {
		t.Errorf("states = %d, original run has %d", resumed.States(), ref.States())
	}
	if resumed.DScenarios().Cmp(ref.DScenarios()) != 0 {
		t.Errorf("dscenarios = %v, original run has %v",
			resumed.DScenarios(), ref.DScenarios())
	}
	// Prior wall is carried: the restored series stays monotone and the
	// resumed total can only extend past its last sample. (No comparison
	// against ref.Wall() — the snapshot is taken before the final fsync,
	// so it legitimately trails the uninterrupted total by a little.)
	samples := resumed.Samples()
	for i := 1; i < len(samples); i++ {
		if samples[i].Wall < samples[i-1].Wall {
			t.Fatalf("restored series wall goes backwards at sample %d: %v after %v",
				i, samples[i].Wall, samples[i-1].Wall)
		}
	}
	if n := len(samples); n > 0 && resumed.Wall() < samples[n-1].Wall {
		t.Errorf("resumed wall %v below its own last sample %v",
			resumed.Wall(), samples[n-1].Wall)
	}
	refSet := explodeFingerprints(ref)
	set := explodeFingerprints(resumed)
	if len(set) != len(refSet) {
		t.Fatalf("%d distinct dscenarios, original run has %d", len(set), len(refSet))
	}
	for fp := range refSet {
		if !set[fp] {
			t.Fatal("resumed run is missing a dscenario of the original")
		}
	}
}

// The paced schedule's constants (internal/sim): a periodic checkpoint may
// be cut every pacedGrid events, and none before pacedFirst of
// exploration — checkpointPace times checkpointFloor.
const (
	pacedGrid  = 256
	pacedFirst = 8 * 2 * time.Millisecond
)

// TestPacedCheckpointBudget runs the benchmark's two built-in checkpoint
// rows (discovery on a 3x3 grid, collect on 7x7; its third is a program of
// its own) and the longer COW collect row through sde.Checkpoint at the
// default schedule, on the real clock. The budget is exact there too, not
// statistical: the pacer's gaps and the costs in the journal are disjoint
// intervals of the same monotonic clock inside the run's wall, and every
// periodic checkpoint but the last is followed by a gap of at least eight
// times its cost. A row short enough to write only the final checkpoint is
// held to the pacer's rule instead: no periodic checkpoint before
// pacedFirst, so every grid boundary came before it. Each run samples at
// every boundary, just before the pacer reads the clock there, which is
// what makes the boundaries' times visible. The COW row is there so that
// the budget arithmetic runs on any host: it is long enough to always
// write a periodic checkpoint.
func TestPacedCheckpointBudget(t *testing.T) {
	specs := map[string]sde.ScenarioSpec{
		"nd-sds":  {Workload: "discovery", Topology: "grid:3", Packets: 2, Algorithm: "sds"},
		"g49-sds": {Workload: "collect", Topology: "grid:7", Packets: 3, Drops: "route+neighbors", Algorithm: "sds"},
		"g49-cow": {Workload: "collect", Topology: "grid:7", Packets: 3, Drops: "route+neighbors", Algorithm: "cow"},
	}
	budgeted := 0
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			scenario, err := spec.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			rep, err := sde.Checkpoint(scenario.WithSampling(pacedGrid), dir)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, "journal.log"))
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			var costs []time.Duration
			for _, line := range lines {
				_, field, ok := strings.Cut(line, " cost=")
				if !ok {
					t.Fatalf("journal line without a cost: %q", line)
				}
				cost, err := time.ParseDuration(field)
				if err != nil {
					t.Fatalf("journal line %q: %v", line, err)
				}
				costs = append(costs, cost)
			}
			ck := rep.Stats().Checkpoint
			if ck.Written != len(lines) {
				t.Errorf("Stats().Checkpoint.Written = %d, journal has %d lines", ck.Written, len(lines))
			}
			if ck.Skipped == 0 {
				t.Error("no grid boundary skipped: the run is many checkpoints long at every-256-events")
			}
			var sum time.Duration
			for _, c := range costs {
				sum += c
			}
			if ck.Wall != sum {
				t.Errorf("Stats().Checkpoint.Wall = %v, journal costs sum to %v", ck.Wall, sum)
			}
			t.Logf("%s: wall %v, %d checkpoints (%v periodic + %v final), %d boundaries skipped",
				name, rep.Wall(), ck.Written, sum-costs[len(costs)-1], costs[len(costs)-1], ck.Skipped)
			if len(costs) == 1 {
				// One sample per boundary, and the final one.
				samples := rep.Samples()
				if len(samples)-1 != ck.Skipped {
					t.Fatalf("%d samples for %d boundaries: sampling is off the pacer's grid",
						len(samples), ck.Skipped)
				}
				for i, sm := range samples[:ck.Skipped] {
					if sm.Wall >= pacedFirst {
						t.Errorf("no periodic checkpoint, yet boundary %d came %v into the run (rule: one is due from %v)",
							i+1, sm.Wall, pacedFirst)
					}
				}
				return
			}
			// All lines but the last are periodic; the last periodic one may
			// not have been followed by its gap before the run ended.
			budgeted++
			periodic := costs[:len(costs)-1]
			var paid time.Duration
			for _, c := range periodic[:len(periodic)-1] {
				paid += c
			}
			if 8*paid > rep.Wall() {
				t.Errorf("periodic checkpoints but the last cost %v of a %v run", paid, rep.Wall())
			}
		})
	}
	if budgeted == 0 {
		t.Error("no row wrote a periodic checkpoint, so the budget was checked on none")
	}
}

func TestShardedCheckpointResume(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)
	ref, err := sde.RunScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first, err := sde.RunScenarioShardedWith(scenario, sde.ShardConfig{
		ShardBits:     1,
		Workers:       2,
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Sched.Resumed != 0 {
		t.Errorf("first run resumed %d shards from an empty directory", first.Sched.Resumed)
	}
	if first.DScenarios().Cmp(ref.DScenarios()) != 0 {
		t.Fatalf("checkpointed sharded run dscenarios = %v, want %v",
			first.DScenarios(), ref.DScenarios())
	}

	// Rerun against the same checkpoint directory with a different
	// worker count: every leaf resumes from its finished snapshot.
	second, err := sde.RunScenarioShardedWith(scenario, sde.ShardConfig{
		ShardBits:     1,
		Workers:       1,
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Sched.Resumed == 0 {
		t.Error("rerun resumed no shards from the checkpoint directory")
	}
	if second.DScenarios().Cmp(ref.DScenarios()) != 0 {
		t.Errorf("resumed sharded run dscenarios = %v, want %v",
			second.DScenarios(), ref.DScenarios())
	}
	if second.States() != first.States() {
		t.Errorf("resumed sharded run states = %d, first run has %d",
			second.States(), first.States())
	}
}

// TestShardableNodesValidation: CustomScenario rejects shardable-node
// lists that would make sharded coverage unsound or are plainly wrong.
func TestShardableNodesValidation(t *testing.T) {
	b := sde.NewProgramBuilder()
	boot := b.Func("boot")
	boot.MovI(sde.R1, 1)
	boot.Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := sde.CustomConfig{
		Topology:     sde.Line(2),
		Program:      prog,
		Algorithm:    sde.SDS,
		HorizonTicks: 10,
	}

	cfg := base
	cfg.ShardableNodes = nil
	if _, err := sde.CustomScenario("ok", cfg); err != nil {
		t.Errorf("empty ShardableNodes rejected: %v", err)
	}

	cfg = base
	cfg.ShardableNodes = []int{-1}
	if _, err := sde.CustomScenario("neg", cfg); err == nil {
		t.Error("negative shardable node accepted")
	}

	cfg = base
	cfg.ShardableNodes = []int{2}
	if _, err := sde.CustomScenario("oob", cfg); err == nil {
		t.Error("shardable node beyond the topology accepted")
	}

	cfg = base
	cfg.Failures = sde.FailurePlan{DropFirst: map[int]bool{0: true}}
	cfg.ShardableNodes = []int{0, 0}
	if _, err := sde.CustomScenario("dup", cfg); err == nil {
		t.Error("duplicate shardable node accepted")
	}

	cfg = base
	cfg.ShardableNodes = []int{0}
	if _, err := sde.CustomScenario("unarmed", cfg); err == nil {
		t.Error("shardable node without an armed DropFirst accepted")
	}

	cfg = base
	cfg.Failures = sde.FailurePlan{DropFirst: map[int]bool{0: true, 1: true}}
	cfg.ShardableNodes = []int{0, 1}
	if _, err := sde.CustomScenario("ok2", cfg); err != nil {
		t.Errorf("valid ShardableNodes rejected: %v", err)
	}
}
