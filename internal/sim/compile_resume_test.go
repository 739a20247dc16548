package sim_test

// Compiled-IR regression tests at the whole-run level: the basic-block
// fast path must be invisible in every observable output — state counts,
// dscenario fingerprints, generated test cases — both between compile-on
// and compile-off runs and across a kill-and-resume of a compile-enabled
// run. The IR (and the fast path's block counters) is derived from the
// program at load time, never serialized, so a resumed run rebuilds it
// from the snapshot alone and the snap format is unchanged.

import (
	"os"
	"path/filepath"
	"testing"

	"sde/internal/core"
	"sde/internal/sim"
	"sde/internal/snap"
)

func withoutCompiledIR(cfg sim.Config) sim.Config {
	cfg.Layers.NoCompile = true
	return cfg
}

// TestCompiledIROnOffEquivalence: the fast path (on by default) must not
// change any observable run output versus pure interpretation, for every
// state-mapping algorithm.
func TestCompiledIROnOffEquivalence(t *testing.T) {
	for _, algo := range allAlgorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			on := runQoptCfg(t, collectConfig(t, algo))
			off := runQoptCfg(t, withoutCompiledIR(collectConfig(t, algo)))
			if on.Stats.VM.FastBlocks == 0 {
				t.Error("compiled run executed no fast blocks; the fast path never engaged")
			}
			if off.Stats.VM.FastBlocks != 0 || off.Stats.VM.SlowBlocks != 0 || off.Stats.VM.FoldedInstrs != 0 {
				t.Errorf("compile-off run recorded block counters: %+v", off.Stats.VM)
			}
			t.Logf("fast=%d slow=%d folded=%d",
				on.Stats.VM.FastBlocks, on.Stats.VM.SlowBlocks, on.Stats.VM.FoldedInstrs)
			compareRuns(t, on, off)
		})
	}
}

// TestCompiledIRKillAndResume interrupts a compile-enabled checkpointed
// run, resumes it, and requires the result to be indistinguishable from
// an uninterrupted compile-off run — resume correctness and fast-path
// transparency at once, proving the rebuilt (never serialized) IR does
// not leak into outputs.
func TestCompiledIRKillAndResume(t *testing.T) {
	ref := runQoptCfg(t, withoutCompiledIR(collectConfig(t, core.SDSAlgorithm)))

	dir := t.TempDir()
	cfg := collectConfig(t, core.SDSAlgorithm)
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 8
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, snap.CheckpointFile)
	for eng.Step() {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatal("run finished before writing any checkpoint; lower CheckpointEvery")
	}

	data, err := snap.LoadBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := sim.ResumeEngine(cfg, data)
	if err != nil {
		t.Fatalf("ResumeEngine: %v", err)
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if !res.Resumed {
		t.Error("resumed result does not report Resumed")
	}
	if res.Stats.VM.FastBlocks == 0 {
		t.Error("resumed compile-on run executed no fast blocks")
	}
	compareRuns(t, res, ref)
}
