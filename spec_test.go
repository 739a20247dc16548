package sde_test

import (
	"strings"
	"testing"

	"sde"
	"sde/internal/trace"
)

// runForDiff executes a scenario and collects every generated test case.
func runForDiff(t *testing.T, s sde.Scenario) (*sde.Report, []string) {
	t.Helper()
	report, err := sde.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	var cases []string
	err = report.StreamTestCases(0, func(tc trace.TestCase) error {
		cases = append(cases, tc.String())
		return nil
	})
	if err != nil {
		t.Fatalf("StreamTestCases: %v", err)
	}
	return report, cases
}

// diffReports requires the two runs to be observably identical: states,
// dscenario counts, fingerprint sets, and test-case streams.
func diffReports(t *testing.T, on, off *sde.Report, onCases, offCases []string) {
	t.Helper()
	if on.States() != off.States() {
		t.Errorf("states = %d speculative, %d synchronous", on.States(), off.States())
	}
	if on.DScenarios().Cmp(off.DScenarios()) != 0 {
		t.Errorf("dscenarios = %v speculative, %v synchronous",
			on.DScenarios(), off.DScenarios())
	}
	onSet, offSet := explodeFingerprints(on), explodeFingerprints(off)
	if len(onSet) != len(offSet) {
		t.Fatalf("%d distinct fingerprints speculative, %d synchronous",
			len(onSet), len(offSet))
	}
	for fp := range offSet {
		if !onSet[fp] {
			t.Fatal("speculative run is missing a dscenario state fingerprint")
		}
	}
	if len(onCases) != len(offCases) {
		t.Fatalf("%d test cases speculative, %d synchronous", len(onCases), len(offCases))
	}
	for i := range offCases {
		if onCases[i] != offCases[i] {
			t.Fatalf("test case %d diverges:\n speculative: %s\n synchronous: %s",
				i, onCases[i], offCases[i])
		}
	}
}

// TestSpeculationSoundness is the speculative-fork pipeline's whole-run
// acceptance gate: on the threshold-alarm scenario — whose symbolic
// sensor reading makes every node branch in the VM, the exact queries the
// pipeline overlaps — a run with the pipeline enabled (the default) and a
// fully synchronous run must produce identical test-case sets and
// identical dscenario state fingerprints for each mapping algorithm.
// Resolution barriers drain verdicts in creation order, so speculation
// must never change any observable output.
func TestSpeculationSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-run differential; CI runs it in a dedicated -count=10 step")
	}
	for _, algo := range []sde.Algorithm{sde.COB, sde.COW, sde.SDS} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			build := func() sde.Scenario {
				s, err := sde.ThresholdScenario(sde.ThresholdOptions{
					K:         5,
					Algorithm: algo,
				})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			on, onCases := runForDiff(t, build())
			off, offCases := runForDiff(t, build().WithoutSpeculation())

			if on.SpecStats().Submitted == 0 {
				t.Error("speculative run submitted no speculations")
			}
			if off.SpecStats().Submitted != 0 {
				t.Errorf("synchronous run submitted %d speculations",
					off.SpecStats().Submitted)
			}
			diffReports(t, on, off, onCases, offCases)
		})
	}
}

// TestNegativeWorkerRejection: negative worker counts must be rejected
// with a clear error at every public layer instead of silently falling
// back to a default pool size.
func TestNegativeWorkerRejection(t *testing.T) {
	s, err := sde.ThresholdScenario(sde.ThresholdOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sde.RunScenario(s.WithSpeculation(-1)); err == nil ||
		!strings.Contains(err.Error(), "SpecWorkers") {
		t.Errorf("RunScenario with SpecWorkers=-1 returned %v", err)
	}
	if _, err := sde.RunScenarioShardedWith(s, sde.ShardConfig{Workers: -2}); err == nil ||
		!strings.Contains(err.Error(), "Workers") {
		t.Errorf("sharded run with Workers=-2 returned %v", err)
	}
	if _, err := sde.RunScenarioSharded(s.WithSpeculation(-1), 0); err == nil ||
		!strings.Contains(err.Error(), "SpecWorkers") {
		t.Errorf("sharded run with SpecWorkers=-1 returned %v", err)
	}
}

// TestSpeculationWorkloadSoundness runs the same differential on the
// assume-heavy benchmark workload, where nearly every solver query rides
// the pipeline and barriers rewind speculative executions — the
// worst-case path for a determinism bug.
func TestSpeculationWorkloadSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-run differential; CI runs it in a dedicated -count=10 step")
	}
	build := func() sde.Scenario { return speculationWorkload(t, 8) }
	on, onCases := runForDiff(t, build().WithSpeculation(2))
	off, offCases := runForDiff(t, build().WithoutSpeculation())
	if on.SpecStats().Submitted == 0 {
		t.Error("workload run submitted no speculations")
	}
	diffReports(t, on, off, onCases, offCases)
}
