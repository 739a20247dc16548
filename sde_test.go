package sde_test

import (
	"strings"
	"testing"

	"sde"
)

func TestGridCollectScenarioDefaults(t *testing.T) {
	s, err := sde.GridCollectScenario(sde.GridCollectOptions{Dim: 3})
	if err != nil {
		t.Fatalf("GridCollectScenario: %v", err)
	}
	if s.Algorithm() != sde.SDS {
		t.Errorf("default algorithm = %v, want SDS", s.Algorithm())
	}
	if !strings.Contains(s.Description(), "grid 3x3") {
		t.Errorf("description = %q", s.Description())
	}
}

// TestScenarioConstructorsDefaultAlgorithm: every constructor documents
// SDS as the zero-value algorithm, and the scenario it returns must
// actually run with it rather than fail on Algorithm(0) inside the engine.
func TestScenarioConstructorsDefaultAlgorithm(t *testing.T) {
	build := map[string]func() (sde.Scenario, error){
		"grid":      func() (sde.Scenario, error) { return sde.GridCollectScenario(sde.GridCollectOptions{Dim: 2}) },
		"line":      func() (sde.Scenario, error) { return sde.LineCollectScenario(sde.LineCollectOptions{K: 2}) },
		"runicast":  func() (sde.Scenario, error) { return sde.RunicastScenario(sde.RunicastOptions{K: 2}) },
		"threshold": func() (sde.Scenario, error) { return sde.ThresholdScenario(sde.ThresholdOptions{K: 2}) },
		"discovery": func() (sde.Scenario, error) {
			return sde.DiscoveryScenario(sde.DiscoveryOptions{Topology: sde.Line(2)})
		},
		"flood": func() (sde.Scenario, error) { return sde.FloodScenario(sde.FloodOptions{K: 2}) },
		"deepchain": func() (sde.Scenario, error) {
			return sde.DeepChainScenario(sde.DeepChainOptions{K: 2, Ticks: 1, Iters: 1})
		},
	}
	for name, fn := range build {
		s, err := fn()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if s.Algorithm() != sde.SDS {
			t.Errorf("%s: default algorithm = %v, want SDS", name, s.Algorithm())
		}
		if _, err := sde.RunScenario(s); err != nil {
			t.Errorf("%s: zero-value algorithm does not run: %v", name, err)
		}
	}
}

func TestGridCollectScenarioValidation(t *testing.T) {
	if _, err := sde.GridCollectScenario(sde.GridCollectOptions{Dim: 1}); err == nil {
		t.Error("dim 1 accepted")
	}
	if _, err := sde.LineCollectScenario(sde.LineCollectOptions{K: 1}); err == nil {
		t.Error("line length 1 accepted")
	}
	if _, err := sde.FloodScenario(sde.FloodOptions{K: 1}); err == nil {
		t.Error("mesh size 1 accepted")
	}
}

func TestRunScenarioEndToEnd(t *testing.T) {
	for _, algo := range sde.Algorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			s, err := sde.GridCollectScenario(sde.GridCollectOptions{
				Dim:       3,
				Algorithm: algo,
				Packets:   2,
			})
			if err != nil {
				t.Fatal(err)
			}
			report, err := sde.RunScenario(s)
			if err != nil {
				t.Fatal(err)
			}
			if aborted, reason := report.Aborted(); aborted {
				t.Fatalf("aborted: %s", reason)
			}
			if report.States() < 9 {
				t.Errorf("states = %d, want >= 9", report.States())
			}
			if report.DScenarios().Sign() <= 0 {
				t.Error("no dscenarios represented")
			}
			if len(report.Violations()) != 0 {
				t.Errorf("unexpected violations: %+v", report.Violations())
			}
			if report.Instructions() == 0 {
				t.Error("no instructions recorded")
			}
			if m := report.MemTerms(); m.Pages <= 0 || m.Overhead <= 0 || m.Total() != report.MemBytes() {
				t.Errorf("MemTerms %+v do not split MemBytes %d", m, report.MemBytes())
			}
			if m := report.PeakMemTerms(); m.Total() != report.PeakMemBytes() {
				t.Errorf("PeakMemTerms %+v do not split PeakMemBytes %d", m, report.PeakMemBytes())
			}
			if !strings.Contains(report.Summary(), algo.String()) {
				t.Errorf("summary %q lacks algorithm", report.Summary())
			}
		})
	}
}

func TestWithAlgorithmSweep(t *testing.T) {
	base, err := sde.GridCollectScenario(sde.GridCollectOptions{Dim: 3, Packets: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[sde.Algorithm]string{}
	for _, algo := range sde.Algorithms {
		report, err := sde.RunScenario(base.WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		counts[algo] = report.DScenarios().String()
	}
	if counts[sde.COB] != counts[sde.COW] || counts[sde.COW] != counts[sde.SDS] {
		t.Errorf("dscenario counts diverge across algorithms: %v", counts)
	}
}

func TestReportTestCasesAndReplay(t *testing.T) {
	s, err := sde.GridCollectScenario(sde.GridCollectOptions{Dim: 3, Packets: 2})
	if err != nil {
		t.Fatal(err)
	}
	report, err := sde.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	tcs, err := report.TestCases(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tcs) != 3 {
		t.Fatalf("test cases = %d, want 3", len(tcs))
	}
	replay, err := report.Replay(tcs[0].Inputs)
	if err != nil {
		t.Fatal(err)
	}
	if replay.States() != 9 {
		t.Errorf("replay states = %d, want 9 (one per node)", replay.States())
	}
}

func TestCapsAbortViaPublicAPI(t *testing.T) {
	s, err := sde.GridCollectScenario(sde.GridCollectOptions{
		Dim:     4,
		Packets: 5,
		Caps:    sde.Caps{MaxStates: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	s = s.WithAlgorithm(sde.COB)
	report, err := sde.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if aborted, _ := report.Aborted(); !aborted {
		t.Error("tiny state cap did not abort")
	}
	if !strings.Contains(report.Summary(), "aborted") {
		t.Errorf("summary %q does not flag the abort", report.Summary())
	}
}

func TestExplorePublicAPI(t *testing.T) {
	b := sde.NewProgramBuilder()
	f := b.Func("main")
	f.Sym(sde.R1, "x", 8)
	f.UltI(sde.R2, sde.R1, 128)
	f.BrNZ(sde.R2, "low")
	f.MovI(sde.R3, 2)
	f.Ret()
	f.Label("low")
	f.MovI(sde.R3, 1)
	f.Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	report, err := sde.Explore(prog, "main", sde.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(report.Paths))
	}
	low := report.Paths[0].TestCase["x_n0_0"]
	high := report.Paths[1].TestCase["x_n0_0"]
	if low >= 128 || high < 128 {
		// DFS order: original takes the true (x < 128) branch first.
		t.Errorf("test cases: low=%d high=%d", low, high)
	}
}

func TestExploreMissingEntry(t *testing.T) {
	b := sde.NewProgramBuilder()
	b.Func("main").Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sde.Explore(prog, "nope", sde.ExploreOptions{}); err == nil {
		t.Error("missing entry function accepted")
	}
}

func TestCustomScenario(t *testing.T) {
	b := sde.NewProgramBuilder()
	boot := b.Func("boot")
	boot.MovI(sde.R1, 1)
	boot.Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sde.CustomScenario("two silent nodes", sde.CustomConfig{
		Topology:     sde.Line(2),
		Program:      prog,
		Algorithm:    sde.SDS,
		HorizonTicks: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := sde.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if report.States() != 2 {
		t.Errorf("states = %d, want 2", report.States())
	}
	if _, err := sde.CustomScenario("bad", sde.CustomConfig{Program: prog}); err == nil {
		t.Error("custom scenario without topology accepted")
	}
}

func TestDefaultEvalOptionsShape(t *testing.T) {
	for _, dim := range []int{5, 7, 10} {
		opts := sde.DefaultEvalOptions(dim)
		if opts.Packets == 0 {
			t.Errorf("dim %d: zero packets", dim)
		}
		if dim > 5 {
			if opts.Caps[sde.COB].MaxStates == 0 {
				t.Errorf("dim %d: COB must be state-capped", dim)
			}
			if opts.DropNodes != sde.DropRouteAndNeighbors {
				t.Errorf("dim %d: want route+neighbour drops", dim)
			}
		}
	}
}

// TestDiscoveryScenario exercises the neighbour-discovery workload: a
// flooding-class protocol (§IV-C) where every node transmits and the
// COW/SDS advantage shrinks.
func TestDiscoveryScenario(t *testing.T) {
	states := map[sde.Algorithm]int{}
	var dsc []string
	for _, algo := range sde.Algorithms {
		s, err := sde.DiscoveryScenario(sde.DiscoveryOptions{
			Topology:  sde.Line(3),
			Algorithm: algo,
			Rounds:    1,
			DropAll:   true,
			Caps:      sde.Caps{MaxStates: 100000},
		})
		if err != nil {
			t.Fatal(err)
		}
		report, err := sde.RunScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		if aborted, reason := report.Aborted(); aborted {
			t.Fatalf("%v aborted: %s", algo, reason)
		}
		if len(report.Violations()) != 0 {
			t.Fatalf("%v violations: %+v", algo, report.Violations())
		}
		states[algo] = report.States()
		dsc = append(dsc, report.DScenarios().String())
	}
	if dsc[0] != dsc[1] || dsc[1] != dsc[2] {
		t.Errorf("dscenario coverage diverges: %v", dsc)
	}
	if states[sde.SDS] > states[sde.COW] || states[sde.COW] > states[sde.COB] {
		t.Errorf("ordering violated: SDS=%d COW=%d COB=%d",
			states[sde.SDS], states[sde.COW], states[sde.COB])
	}
	// Dense communication: the SDS advantage is modest here compared to
	// the sparse grid (every node transmits and overhears).
	ratio := float64(states[sde.COB]) / float64(states[sde.SDS])
	if ratio > 6 {
		t.Errorf("discovery should erode the COB/SDS gap; ratio = %.1f", ratio)
	}
}

// TestDiscoveryScenarioSharded: every armed node beacons, so all armed
// drop decisions are shardable.
func TestDiscoveryScenarioSharded(t *testing.T) {
	s, err := sde.DiscoveryScenario(sde.DiscoveryOptions{
		Topology:  sde.Line(3),
		Algorithm: sde.SDS,
		Rounds:    1,
		DropAll:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxShardBits() != 3 {
		t.Fatalf("MaxShardBits = %d, want 3 (all nodes armed and beaconing)", s.MaxShardBits())
	}
	ref, err := sde.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := sde.RunScenarioSharded(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.DScenarios().Cmp(ref.DScenarios()) != 0 {
		t.Errorf("sharded coverage %v != %v", sharded.DScenarios(), ref.DScenarios())
	}
}

// TestThresholdScenarioPublicAPI: symbolic packet contents through the
// public API — two behaviours, test cases with consistent readings.
func TestThresholdScenarioPublicAPI(t *testing.T) {
	s, err := sde.ThresholdScenario(sde.ThresholdOptions{K: 3, Threshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	report, err := sde.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if report.DScenarios().Int64() != 2 {
		t.Fatalf("dscenarios = %v, want 2", report.DScenarios())
	}
	tcs, err := report.TestCases(0)
	if err != nil {
		t.Fatal(err)
	}
	above, below := false, false
	for _, tc := range tcs {
		if tc.Inputs["reading_n2_0"] > 1000 {
			above = true
		} else {
			below = true
		}
	}
	if !above || !below {
		t.Errorf("readings do not straddle the threshold: %v", tcs)
	}
	if _, err := sde.ThresholdScenario(sde.ThresholdOptions{K: 1}); err == nil {
		t.Error("K=1 accepted")
	}
}

// TestEvaluationShapeSmall runs a reduced sweep and checks the paper's
// headline ordering end to end through the public API.
func TestEvaluationShapeSmall(t *testing.T) {
	rows, err := sde.RunGridEvaluation(4, sde.EvalOptions{Packets: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byAlgo := map[sde.Algorithm]sde.EvalRow{}
	for _, r := range rows {
		byAlgo[r.Algorithm] = r
	}
	if !(byAlgo[sde.SDS].States < byAlgo[sde.COW].States &&
		byAlgo[sde.COW].States <= byAlgo[sde.COB].States) {
		t.Errorf("state ordering violated: SDS=%d COW=%d COB=%d",
			byAlgo[sde.SDS].States, byAlgo[sde.COW].States, byAlgo[sde.COB].States)
	}
	if byAlgo[sde.COB].DScenarios.Cmp(byAlgo[sde.SDS].DScenarios) != 0 {
		t.Error("dscenario coverage diverges")
	}
	table := sde.FormatTable("t", rows)
	for _, want := range []string{"Copy On Branch", "Copy On Write", "Super DStates"} {
		if !strings.Contains(table, want) {
			t.Errorf("table lacks %q:\n%s", want, table)
		}
	}
	fig := sde.FigureSeries(4, rows)
	if !strings.Contains(fig, "state growth") || !strings.Contains(fig, "memory growth") {
		t.Errorf("figure output incomplete:\n%s", fig)
	}
}
