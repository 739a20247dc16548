package sim_test

// Modeled-RAM accounting oracle. The engine no longer recounts pages and
// per-state overhead on every sample: pages are counted where they are born
// and released, overhead is re-measured only for the states the engine
// touched. This test holds that bookkeeping against the whole-population
// walk it replaced, at every sample and at Finish, over the product of
// mapping algorithms, layer sets, failure models and interruptions — so a
// holder that forgot to release, or a mutation site that forgot to mark its
// state touched, fails here by name instead of as a moved RAM figure in
// some artifact.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sde/internal/core"
	"sde/internal/sim"
	"sde/internal/snap"
)

// checkedSteps drives eng until Step reports completion or stop returns
// true, requiring every sample taken on the way to equal the walk. Nothing
// here calls into the accounting itself, so sampling keeps the cadence of a
// real run.
func checkedSteps(t *testing.T, eng *sim.Engine, stop func() bool) {
	t.Helper()
	seen, _ := eng.LastSampleMem()
	for eng.Step() {
		if n, mem := eng.LastSampleMem(); n != seen {
			seen = n
			if walk := eng.ModelBytesWalk(); mem != walk.Total() {
				t.Fatalf("sample %d: accounted %d bytes, walk finds %d (%+v)", n, mem, walk.Total(), walk)
			}
		}
		if stop != nil && stop() {
			return
		}
	}
}

// checkedFinish finishes the run and checks the final sample and the
// reported final footprint.
func checkedFinish(t *testing.T, eng *sim.Engine) *sim.Result {
	t.Helper()
	before := eng.ModelBytesWalk()
	res := eng.Finish()
	if _, mem := eng.LastSampleMem(); mem != before.Total() {
		t.Fatalf("final sample: accounted %d bytes, walk finds %d (%+v)", mem, before.Total(), before)
	}
	if walk := eng.ModelBytesWalk(); res.FinalMemTerms != walk {
		t.Fatalf("FinalMemTerms = %+v, walk finds %+v", res.FinalMemTerms, walk)
	}
	if res.FinalMemTerms.Total() != res.FinalMem {
		t.Errorf("FinalMemTerms %+v do not sum to FinalMem %d", res.FinalMemTerms, res.FinalMem)
	}
	if pt := res.PeakMemTerms; pt != (sim.MemTerms{}) && pt.Total() != res.PeakMem {
		t.Errorf("PeakMemTerms %+v do not sum to PeakMem %d", pt, res.PeakMem)
	}
	if res.PeakMem < res.FinalMem {
		t.Errorf("PeakMem %d below FinalMem %d", res.PeakMem, res.FinalMem)
	}
	return res
}

func TestModelBytesMatchesWalk(t *testing.T) {
	type workload struct {
		name   string
		config func(*testing.T, core.Algorithm) sim.Config
		nodes  []int // where the failure model is armed; nil: where the workload drops
	}
	workloads := []workload{
		// Forks come from the failure models.
		{"collect", collectConfig, nil},
		// Forks come from symbolic branches: speculation, rewinds, solver.
		{"threshold", thresholdConfig, []int{1, 2}},
		// Every node relays: a fork per armed node on the flood's wavefront.
		{"flood", floodConfig, nil},
	}
	layers := []struct {
		name  string
		apply func(sim.Config) sim.Config
	}{
		{"default", func(c sim.Config) sim.Config { return c }},
		{"nospec", withoutSpeculation},
		{"nocompile", func(c sim.Config) sim.Config { c.Layers.NoCompile = true; return c }},
	}
	failures := []struct {
		name string
		plan func(nodes []int) sim.FailurePlan
	}{
		{"drop", func(n []int) sim.FailurePlan { return sim.FailurePlan{DropFirst: sim.NodeSet(n)} }},
		{"duplicate", func(n []int) sim.FailurePlan { return sim.FailurePlan{DuplicateFirst: sim.NodeSet(n)} }},
		{"reboot", func(n []int) sim.FailurePlan { return sim.FailurePlan{RebootOnFirst: sim.NodeSet(n)} }},
	}
	interruptions := []struct {
		name string
		run  func(*testing.T, sim.Config) *sim.Result
	}{
		{"uninterrupted", runChecked},
		{"killresume", runKilledAndResumed},
		{"suspend", runSuspendedAndContinued},
	}
	for _, w := range workloads {
		for _, algo := range allAlgorithms {
			for _, l := range layers {
				for _, f := range failures {
					if testing.Short() && (l.name != "default" && f.name != "drop") {
						continue // the full product is the non-short run
					}
					cfg := w.config(t, algo)
					nodes := w.nodes
					for n := range cfg.Failures.DropFirst {
						nodes = append(nodes, n)
					}
					cfg.Failures = f.plan(nodes)
					cfg.CheckInvariants = false
					cfg.SampleEvery = 3
					cfg = l.apply(cfg)
					var ref *sim.Result
					for _, in := range interruptions {
						name := fmt.Sprintf("%s/%v/%s/%s/%s", w.name, algo, l.name, f.name, in.name)
						t.Run(name, func(t *testing.T) {
							res := in.run(t, cfg)
							if ref == nil {
								ref = res
								return
							}
							// Interruptions must not move the numbers either.
							if res.FinalStates != ref.FinalStates || res.FinalMemTerms != ref.FinalMemTerms ||
								res.PeakMem != ref.PeakMem {
								t.Errorf("states/final/peak = %d/%+v/%d, uninterrupted run has %d/%+v/%d",
									res.FinalStates, res.FinalMemTerms, res.PeakMem,
									ref.FinalStates, ref.FinalMemTerms, ref.PeakMem)
							}
						})
					}
				}
			}
		}
	}
}

func runChecked(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkedSteps(t, eng, nil)
	return checkedFinish(t, eng)
}

// runKilledAndResumed abandons a checkpointing engine at its second
// checkpoint and finishes the run on an engine resumed from the file. (The
// shortest runs of the product have 13 events.)
func runKilledAndResumed(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 4
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(cfg.CheckpointDir, snap.CheckpointFile)
	steps := 0
	checkedSteps(t, eng, func() bool {
		steps++
		_, err := os.Stat(ckpt)
		return err == nil && steps >= 2*cfg.CheckpointEvery
	})
	data, err := snap.LoadBytes(cfg.CheckpointDir)
	if err != nil {
		t.Fatalf("run ended before its second checkpoint: %v", err)
	}
	resumed, err := sim.ResumeEngine(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	checkedSteps(t, resumed, nil)
	res := checkedFinish(t, resumed)
	if !res.Resumed {
		t.Error("resumed run does not report Resumed")
	}
	return res
}

// runSuspendedAndContinued pauses the run at an event budget, checks the
// suspended engine's own Finish, and completes the run from its frontier.
func runSuspendedAndContinued(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	budgeted := cfg
	budgeted.EventBudget = 9 // a sampling tick: Finish samples nothing the uninterrupted run does not
	eng, err := sim.NewEngine(budgeted)
	if err != nil {
		t.Fatal(err)
	}
	checkedSteps(t, eng, nil)
	if res := checkedFinish(t, eng); !res.Suspended {
		t.Fatalf("run did not suspend at its event budget (events=%d)", res.Events)
	}
	sp, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := sp.Encode(eng.Ctx().Exprs)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := sim.ResumeEngine(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	checkedSteps(t, cont, nil)
	return checkedFinish(t, cont)
}
