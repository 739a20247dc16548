package sim_test

// Kill-and-resume integration tests: interrupt a checkpointed run
// mid-exploration (simulating a crash by abandoning the engine), resume
// from the snapshot on disk, and require the resumed run to be
// indistinguishable from an uninterrupted one — same dscenario
// fingerprints, same state counts, same generated test cases.

import (
	"os"
	"path/filepath"
	"testing"

	"sde/internal/core"
	"sde/internal/rime"
	"sde/internal/sim"
	"sde/internal/snap"
	"sde/internal/solver"
	"sde/internal/trace"
)

// collectConfig builds the 3x3 gridcollect configuration shared by the
// resume tests: staircase route, symbolic drops on the whole data path.
func collectConfig(t *testing.T, algo core.Algorithm) sim.Config {
	t.Helper()
	prog, err := rime.CollectProgram()
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewGrid(3, 3)
	route := g.StaircaseRoute(8, 0)
	cc := rime.CollectConfig{
		Source:   route[0],
		Sink:     route[len(route)-1],
		Route:    route,
		Interval: 10,
		Packets:  2,
	}
	nodeInit, err := cc.NodeInit(g.K())
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Topo:            g,
		Prog:            prog,
		Algorithm:       algo,
		Horizon:         120,
		NodeInit:        nodeInit,
		Failures:        sim.FailurePlan{DropFirst: sim.NodeSet(route)},
		CheckInvariants: true,
	}
}

// testCaseStrings generates every test case of the result with a fresh
// solver, so the concrete models depend only on the constraints — the
// run's own solver carries pool/cache state that differs between a
// resumed and an uninterrupted run and may pick different (equally valid)
// models.
func testCaseStrings(t *testing.T, res *sim.Result) []string {
	t.Helper()
	res.Ctx.Solver = solver.New()
	cases, err := trace.FromResult(res, 0)
	if err != nil {
		t.Fatalf("FromResult: %v", err)
	}
	out := make([]string, len(cases))
	for i, tc := range cases {
		out[i] = tc.String()
	}
	return out
}

// requireSameRun fails the test unless res is indistinguishable from the
// uninterrupted run ref: same state and dscenario counts, same violations,
// same dscenario fingerprints, same generated test cases.
func requireSameRun(t *testing.T, res, ref *sim.Result) {
	t.Helper()
	if res.FinalStates != ref.FinalStates {
		t.Errorf("states = %d, uninterrupted run has %d", res.FinalStates, ref.FinalStates)
	}
	if res.DScenarios.Cmp(ref.DScenarios) != 0 {
		t.Errorf("dscenarios = %v, uninterrupted run has %v", res.DScenarios, ref.DScenarios)
	}
	if len(res.Violations) != len(ref.Violations) {
		t.Errorf("violations = %d, uninterrupted run has %d",
			len(res.Violations), len(ref.Violations))
	}
	refSet := scenarioSet(ref)
	set := scenarioSet(res)
	if len(set) != len(refSet) {
		t.Fatalf("%d distinct dscenario fingerprints, uninterrupted run has %d",
			len(set), len(refSet))
	}
	for fp, n := range refSet {
		if set[fp] != n {
			t.Fatalf("dscenario fingerprint %x: count %d, uninterrupted run has %d",
				fp, set[fp], n)
		}
	}
	refCases := testCaseStrings(t, ref)
	gotCases := testCaseStrings(t, res)
	if len(gotCases) != len(refCases) {
		t.Fatalf("%d test cases, uninterrupted run has %d", len(gotCases), len(refCases))
	}
	for i := range refCases {
		if gotCases[i] != refCases[i] {
			t.Fatalf("test case %d diverges:\n resumed: %s\n fresh:   %s",
				i, gotCases[i], refCases[i])
		}
	}
}

func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-recovery sweep; CI runs it in a dedicated race step")
	}
	for _, algo := range allAlgorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			ref := func() *sim.Result {
				eng, err := sim.NewEngine(collectConfig(t, algo))
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}()

			// Interrupted run: step until the first checkpoint lands on
			// disk, then abandon the engine — the crash.
			dir := t.TempDir()
			cfg := collectConfig(t, algo)
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
			resumedEng, err := sim.ResumeEngine(cfg, data)
			if err != nil {
				t.Fatalf("ResumeEngine: %v", err)
			}
			res, err := resumedEng.Run()
			if err != nil {
				t.Fatalf("resumed Run: %v", err)
			}
			if !res.Resumed {
				t.Error("resumed result does not report Resumed")
			}

			requireSameRun(t, res, ref)
		})
	}
}

// TestResumeRejectsMismatchedConfig: a checkpoint must not silently
// restore into a run with a different algorithm or topology.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := collectConfig(t, core.SDSAlgorithm)
	cfg.CheckpointDir = dir
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := snap.LoadBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Algorithm = core.COBAlgorithm
	if _, err := sim.ResumeEngine(bad, data); err == nil {
		t.Error("ResumeEngine accepted a checkpoint from a different algorithm")
	}
	bad = cfg
	bad.Topo = sim.NewGrid(4, 4)
	if _, err := sim.ResumeEngine(bad, data); err == nil {
		t.Error("ResumeEngine accepted a checkpoint from a different topology")
	}
}
