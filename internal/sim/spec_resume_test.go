package sim_test

// Speculative-fork pipeline regression tests at the whole-run level: the
// pipeline must be invisible in every observable output — state counts,
// dscenario fingerprints, generated test cases — both between
// speculation-on and speculation-off runs and across a kill-and-resume of
// a speculation-enabled run. Speculation state is never serialized: every
// checkpoint is taken at a resolution barrier with the pipeline drained,
// so a resumed run simply starts a fresh pool.

import (
	"os"
	"path/filepath"
	"testing"

	"sde/internal/core"
	"sde/internal/rime"
	"sde/internal/sim"
	"sde/internal/snap"
)

// withoutSpeculation turns the speculative-fork solver pipeline off.
func withoutSpeculation(cfg sim.Config) sim.Config {
	cfg.Layers.NoSpeculate = true
	return cfg
}

// thresholdConfig builds the symbolic-sensor threshold-alarm scenario:
// its VM-level branches on the symbolic reading are exactly the queries
// the speculative pipeline overlaps (collect's forking comes from
// network-layer drops, which resolve at barriers and never speculate).
func thresholdConfig(t *testing.T, algo core.Algorithm) sim.Config {
	t.Helper()
	prog, err := rime.ThresholdProgram()
	if err != nil {
		t.Fatal(err)
	}
	tc := rime.ThresholdConfig{Source: 3, Threshold: 500, Interval: 10}
	return sim.Config{
		Topo:            sim.NewLine(4),
		Prog:            prog,
		Algorithm:       algo,
		Horizon:         500,
		NodeInit:        tc.NodeInit(),
		CheckInvariants: true,
	}
}

// TestSpeculationOnOffEquivalence: the pipeline (on by default) must not
// change any observable run output versus synchronous solving.
func TestSpeculationOnOffEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-run differential; CI runs it in a dedicated -count=10 step")
	}
	for _, algo := range allAlgorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			on := runCfg(t, thresholdConfig(t, algo))
			off := runCfg(t, withoutSpeculation(thresholdConfig(t, algo)))
			if on.Stats.Spec.Submitted == 0 {
				t.Error("speculation-on run submitted no speculations")
			}
			if off.Stats.Spec.Submitted != 0 {
				t.Errorf("speculation-off run submitted %d speculations", off.Stats.Spec.Submitted)
			}
			requireSameRun(t, on, off)
		})
	}
}

// TestSpeculationKillAndResume interrupts a speculation-enabled
// checkpointed run, resumes it, and requires the result to be
// indistinguishable from an uninterrupted speculation-off run — resume
// correctness and pipeline transparency at once. The interrupt lands
// between barriers, so it also proves checkpoints only happen with the
// pipeline quiescent.
func TestSpeculationKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-recovery sweep; CI runs it in a dedicated -count=10 step")
	}
	ref := runCfg(t, withoutSpeculation(thresholdConfig(t, core.SDSAlgorithm)))

	dir := t.TempDir()
	cfg := thresholdConfig(t, core.SDSAlgorithm)
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
	if res.Stats.Spec.Submitted == 0 {
		t.Error("resumed run submitted no speculations")
	}
	t.Logf("resumed counters:\n%s", res.Stats)
	requireSameRun(t, res, ref)
}
