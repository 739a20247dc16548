package sim_test

// Query-optimizer regression tests at the whole-run level: the optimizer
// must be invisible in every observable output — state counts, dscenario
// fingerprints, generated test cases — both between optimizer-on and
// optimizer-off runs and across a kill-and-resume of an optimizer-enabled
// run. Optimizer state is derived from the path conditions, never
// serialized, so a resumed run rebuilds it query by query from the
// snapshot alone.

import (
	"os"
	"path/filepath"
	"testing"

	"sde/internal/core"
	"sde/internal/sim"
	"sde/internal/snap"
	"sde/internal/solver"
)

// withoutOptimizer runs the config without a query optimizer.
func withoutOptimizer(cfg sim.Config) sim.Config {
	cfg.Layers.NoQopt = true
	return cfg
}

func runQoptCfg(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compareRuns requires two runs to be observably identical: same final
// states, same dscenario fingerprint multiset, same test cases.
func compareRuns(t *testing.T, got, want *sim.Result) {
	t.Helper()
	if got.FinalStates != want.FinalStates {
		t.Errorf("states = %d, want %d", got.FinalStates, want.FinalStates)
	}
	if got.DScenarios.Cmp(want.DScenarios) != 0 {
		t.Errorf("dscenarios = %v, want %v", got.DScenarios, want.DScenarios)
	}
	if len(got.Violations) != len(want.Violations) {
		t.Errorf("violations = %d, want %d", len(got.Violations), len(want.Violations))
	}
	wantSet, gotSet := scenarioSet(want), scenarioSet(got)
	if len(gotSet) != len(wantSet) {
		t.Fatalf("%d distinct dscenario fingerprints, want %d", len(gotSet), len(wantSet))
	}
	for fp, n := range wantSet {
		if gotSet[fp] != n {
			t.Fatalf("dscenario fingerprint %x: count %d, want %d", fp, gotSet[fp], n)
		}
	}
	wantCases, gotCases := testCaseStrings(t, want), testCaseStrings(t, got)
	if len(gotCases) != len(wantCases) {
		t.Fatalf("%d test cases, want %d", len(gotCases), len(wantCases))
	}
	for i := range wantCases {
		if gotCases[i] != wantCases[i] {
			t.Fatalf("test case %d diverges:\n got:  %s\n want: %s", i, gotCases[i], wantCases[i])
		}
	}
}

// TestOptimizerOnOffEquivalence: the optimizer (on by default) must not
// change any observable run output versus a run without one.
func TestOptimizerOnOffEquivalence(t *testing.T) {
	for _, algo := range allAlgorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			on := runQoptCfg(t, collectConfig(t, algo))
			off := runQoptCfg(t, withoutOptimizer(collectConfig(t, algo)))
			compareRuns(t, on, off)
		})
	}
}

// TestOptimizerKillAndResume interrupts an optimizer-enabled checkpointed
// run, resumes it, and requires the result to be indistinguishable from
// an uninterrupted optimizer-off run — the strongest equivalence: resume
// correctness and optimizer transparency at once, proving the rebuilt
// (never serialized) optimizer state does not leak into outputs.
func TestOptimizerKillAndResume(t *testing.T) {
	ref := runQoptCfg(t, withoutOptimizer(collectConfig(t, core.SDSAlgorithm)))

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
	t.Logf("resumed optimizer counters: sliced=%d rewrites=%d concretized=%d elided=%d",
		res.Stats.Solver.SlicedQueries, res.Stats.Solver.RewriteHits,
		res.Stats.Solver.ConcretizedReads, res.Stats.Solver.GatesElided)
	compareRuns(t, res, ref)
}

// TestOptimizerStageSwitches: a config that supplies its own solver
// options still runs with an optimizer, and Layers.NoQopt runs without
// one — no query sliced or rewritten, no read concretized — forking
// exactly where the optimized run forks.
func TestOptimizerStageSwitches(t *testing.T) {
	// Speculation workers bypass the optimizer, so the queries are
	// solved on the interpreter thread where it runs.
	cfg := withoutSpeculation(mixConfig(t, 4, core.SDSAlgorithm))
	cfg.Solver = solver.Options{MaxConflicts: 1 << 20}
	on := runQoptCfg(t, cfg)
	off := runQoptCfg(t, withoutOptimizer(cfg))
	if st := on.Stats.Solver; st.SlicedQueries == 0 || st.RewriteHits == 0 {
		t.Fatalf("optimized run: sliced=%d rewrites=%d, want both > 0", st.SlicedQueries, st.RewriteHits)
	}
	if st := off.Stats.Solver; st.SlicedQueries != 0 || st.RewriteHits != 0 || st.ConcretizedReads != 0 {
		t.Errorf("NoQopt: sliced=%d rewrites=%d concretized=%d, want all 0",
			st.SlicedQueries, st.RewriteHits, st.ConcretizedReads)
	}
	if off.Stats.VM.Forks != on.Stats.VM.Forks {
		t.Errorf("NoQopt forked %d times, the optimized run %d", off.Stats.VM.Forks, on.Stats.VM.Forks)
	}
}
