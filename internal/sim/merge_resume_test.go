package sim_test

// State-merging regression tests at the whole-run level: merging (off by
// default) must be invisible in every observable output — final states,
// dscenario fingerprints, violations, generated test cases — both between
// merge-on and merge-off runs and across a kill-and-resume of a
// merge-enabled run. Merged representatives ARE serialized (snap wire
// version 3), so resume additionally exercises the rep/member round-trip
// through the checkpoint.

import (
	"os"
	"path/filepath"
	"testing"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/sim"
	"sde/internal/snap"
)

// withMerging enables the ITE-based state-merging subsystem.
func withMerging(cfg sim.Config) sim.Config {
	cfg.Layers.Merge = true
	return cfg
}

// TestMergeOnOffEquivalence: merging must not change any observable run
// output versus the default unmerged exploration, for every mapping
// algorithm. The on-run must actually merge (otherwise the oracle proves
// nothing) and the off-run must report zero merge activity.
func TestMergeOnOffEquivalence(t *testing.T) {
	for _, algo := range allAlgorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			on := runQoptCfg(t, withMerging(collectConfig(t, algo)))
			off := runQoptCfg(t, collectConfig(t, algo))
			if on.Stats.Merge.Merges == 0 {
				t.Error("merge-enabled run performed no merges; workload no longer exercises the subsystem")
			}
			if off.Stats.Merge.Merges != 0 || off.Stats.Merge.Candidates != 0 {
				t.Errorf("merge-disabled run reports merge activity: %+v", off.Stats.Merge)
			}
			compareRuns(t, on, off)
		})
	}
}

// mergedCheckpoint runs a merge-enabled checkpointed exploration until a
// checkpoint that carries live merged representatives is on disk, then
// abandons the engine (the simulated crash) and returns that snapshot.
// Resuming from a rep-carrying checkpoint — rather than whichever
// checkpoint lands first — makes the rep/member serialization round-trip
// a deterministic part of the test instead of a timing accident.
func mergedCheckpoint(t *testing.T, cfg sim.Config) []byte {
	t.Helper()
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(cfg.CheckpointDir, snap.CheckpointFile)
	for eng.Step() {
		if _, err := os.Stat(ckpt); err != nil {
			continue
		}
		data, err := snap.LoadBytes(cfg.CheckpointDir)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := snap.Decode(data, expr.NewBuilder())
		if err != nil {
			t.Fatal(err)
		}
		if len(sp.Merged) > 0 {
			return data
		}
	}
	t.Fatal("no checkpoint carried merged representatives; workload no longer merges across checkpoints")
	return nil
}

// TestMergeKillAndResume interrupts a merge-enabled checkpointed run at a
// checkpoint holding live merged representatives, resumes it (merging
// still on), and requires the result to be indistinguishable from an
// uninterrupted merge-off run — resume correctness and merge transparency
// at once. Unlike the optimizer, merge state is serialized, so this also
// pins the rep/member snapshot round-trip.
func TestMergeKillAndResume(t *testing.T) {
	ref := runQoptCfg(t, collectConfig(t, core.SDSAlgorithm))

	cfg := withMerging(collectConfig(t, core.SDSAlgorithm))
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 8
	data := mergedCheckpoint(t, cfg)
	resumed, err := sim.ResumeEngine(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Error("resumed run does not report Resumed")
	}
	compareRuns(t, res, ref)
}

// TestMergeResumeWithMergingOff resumes a rep-carrying checkpoint written
// by a merge-enabled run with merging DISABLED. The representatives in
// the snapshot must dissolve back into their exact member states, and the
// rest of the run must match an uninterrupted merge-off run. This is the
// triage path: a suspect merged run can be continued unmerged.
func TestMergeResumeWithMergingOff(t *testing.T) {
	ref := runQoptCfg(t, collectConfig(t, core.SDSAlgorithm))

	cfg := withMerging(collectConfig(t, core.SDSAlgorithm))
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 8
	data := mergedCheckpoint(t, cfg)
	offCfg := cfg
	offCfg.Layers.Merge = false
	resumed, err := sim.ResumeEngine(offCfg, data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The counters are the run's, not the process's: the resumed half
	// reports the fusions the checkpoint carried and adds none.
	sp, err := snap.Decode(data, expr.NewBuilder())
	if err != nil {
		t.Fatal(err)
	}
	if carried := sp.Stats.Merge.Merges; carried == 0 || res.Stats.Merge.Merges != carried {
		t.Errorf("merge-off resume reports %d merges, the checkpoint carried %d", res.Stats.Merge.Merges, carried)
	}
	compareRuns(t, res, ref)
}
