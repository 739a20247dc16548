package sim_test

// Speculative-fork pipeline regression tests at the whole-run level: the
// pipeline must be invisible in every observable output — state counts,
// dscenario fingerprints, generated test cases — both between
// speculation-on and speculation-off runs and across a kill-and-resume of
// a speculation-enabled run. Speculation state is never serialized:
// State.Run resolves every speculation before it returns, so no checkpoint
// can find one pending.

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sde/internal/core"
	"sde/internal/isa"
	"sde/internal/rime"
	"sde/internal/sim"
	"sde/internal/snap"
)

// withoutSpeculation turns speculative forking off.
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

// TestDroppedEngineLeavesNoWorker: speculation resolves inside State.Run
// on the engine's own solver, so an engine that speculates starts no solver
// goroutine — one stepped and dropped, as the snapshot tests' frontiers
// are, leaves nothing behind once its witnesses are solved. Neither does one
// the mapper refused after its shell was built.
func TestDroppedEngineLeavesNoWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	bad := thresholdConfig(t, core.SDSAlgorithm)
	bad.Algorithm = core.Algorithm(99)
	if _, err := sim.NewEngine(bad); err == nil {
		t.Fatal("NewEngine accepted an unknown algorithm")
	}
	for _, algo := range allAlgorithms {
		eng, err := sim.NewEngine(thresholdConfig(t, algo))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40 && eng.Step(); i++ {
		}
		if eng.Ctx().SpecStats().Submitted == 0 {
			t.Errorf("%v: the engine speculated nothing in its first 40 events", algo)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after four dropped engines, %d before", n, before)
	}
}

// rewindConfig runs one boot handler under a 100-instruction budget. Node 0
// assumes x < 10 and then branches on x >= 20: the true side is infeasible.
// On it, doomed instructions lead to a send, the barrier that finds the
// branch one-sided-false, or with send false to the handler's end. The false
// side runs fill more instructions and returns.
func rewindConfig(t *testing.T, doomed, fill int, send bool) sim.Config {
	t.Helper()
	prog := witnessProg(t, func(b *isa.Builder) {
		boot := b.Func("boot")
		boot.NodeID(isa.R1)
		boot.BrNZ(isa.R1, "done")
		boot.Sym(isa.R2, "x", 8)
		boot.UltI(isa.R3, isa.R2, 10)
		boot.Assume(isa.R3)
		boot.UltI(isa.R3, isa.R2, 20)
		boot.EqI(isa.R3, isa.R3, 0)
		boot.BrNZ(isa.R3, "doomed")
		for i := 0; i < fill; i++ {
			boot.Nop()
		}
		boot.Label("done")
		boot.Ret()
		boot.Label("doomed")
		for i := 0; i < doomed; i++ {
			boot.Nop()
		}
		if send {
			boot.MovI(isa.R4, 0x300)
			boot.MovI(isa.R5, 1)
			boot.Send(isa.R5, isa.R4, 1)
		}
		boot.Ret()
	})
	return sim.Config{
		Topo:       sim.NewLine(2),
		Prog:       prog,
		Algorithm:  core.SDSAlgorithm,
		Horizon:    50,
		StepBudget: 100,
	}
}

// TestSpeculationRewindKeepsBudget: a state rewound onto a branch's false
// side runs on from the budget position of the branch, so a handler near its
// budget lives or dies with speculation on exactly as with it off — whether
// the rewind happens at a barrier (the doomed path's instructions must not be
// charged) or at the handler's end (the false side must not get a fresh
// budget).
func TestSpeculationRewindKeepsBudget(t *testing.T) {
	for _, tc := range []struct {
		name       string
		send       bool
		fill       int
		wantDeaths int
	}{
		{"barrier", true, 70, 0},
		{"end", false, 95, 1},
	} {
		for _, compile := range []bool{true, false} {
			cfg := rewindConfig(t, 60, tc.fill, tc.send)
			cfg.Layers.NoCompile = !compile
			on := runCfg(t, cfg)
			off := runCfg(t, withoutSpeculation(cfg))
			if len(off.Violations) != tc.wantDeaths {
				t.Fatalf("%s, compile=%v: %d violations without speculation, want %d", tc.name, compile, len(off.Violations), tc.wantDeaths)
			}
			if on.Stats.Spec.Rewinds == 0 {
				t.Fatalf("%s, compile=%v: the speculating run rewound nothing: %+v", tc.name, compile, on.Stats.Spec)
			}
			if len(on.Violations) != len(off.Violations) {
				t.Errorf("%s, compile=%v: %d violations with speculation, %d without", tc.name, compile, len(on.Violations), len(off.Violations))
			}
			requireSameRun(t, on, off)
		}
	}
}

// TestSpeculationElision: a one-sided-false branch is decided by one solve —
// its true side is UNSAT, so its false side is known SAT (complement
// elision) — and every other speculation takes one solve per query, with
// the run's outcome that of synchronous solving.
func TestSpeculationElision(t *testing.T) {
	cfg := rewindConfig(t, 2, 2, true)
	on := runCfg(t, cfg)
	off := runCfg(t, withoutSpeculation(cfg))
	sp := on.Stats.Spec
	if sp.Elided < 1 {
		t.Errorf("Elided = %d, want at least 1: %+v", sp.Elided, sp)
	}
	if want := 2*sp.Pairs + sp.Assumes - sp.Elided; sp.Solves != want {
		t.Errorf("Solves = %d, want 2·Pairs + Assumes − Elided = %d: %+v", sp.Solves, want, sp)
	}
	requireSameRun(t, on, off)
}
