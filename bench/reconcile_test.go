package main

import (
	"reflect"
	"testing"

	"sde"
)

func reconcileRun(t *testing.T, a sde.Algorithm, seed int64) (*sde.Report, ReconcileConstants) {
	t.Helper()
	s, c, err := ReconcileScenario(ReconcileOptions{Replicas: 3, Rounds: 2, Writes: 2, Writers: 2, Algorithm: a, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sde.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if aborted, reason := rep.Aborted(); aborted {
		t.Fatalf("%s aborted: %s", a, reason)
	}
	return rep, c
}

// The three algorithms cover the same dscenarios, convergence is violated
// where a session was lost for good, every witness replays, and test cases
// exist for the dscenarios (no state is left with an unsatisfiable path
// condition, which is what concurrent comparisons would cause).
func TestReconcileAlgorithmsAgree(t *testing.T) {
	var dscenarios string
	for _, a := range sde.Algorithms {
		rep, _ := reconcileRun(t, a, 1)
		if d := rep.DScenarios().String(); dscenarios == "" {
			dscenarios = d
		} else if d != dscenarios {
			t.Errorf("%s represents %s dscenarios, others %s", a, d, dscenarios)
		}
		if _, err := rep.TestCases(0); err != nil {
			t.Errorf("%s: test cases: %v", a, err)
		}
		vs := rep.Violations()
		if len(vs) == 0 {
			t.Errorf("%s found no convergence violation", a)
		}
		for i, v := range vs {
			ok, _, err := rep.ReplayViolation(v)
			if err != nil || !ok {
				t.Errorf("%s: violation %d (%s at node %d) did not replay: %v", a, i, v.Msg, v.Node, err)
			}
		}
	}
}

func TestReconcileQueriesSolver(t *testing.T) {
	rep, _ := reconcileRun(t, sde.SDS, 1)
	if q := rep.SolverStats().Queries; q < 2000 {
		t.Errorf("SDS row issued %d solver queries, want >= 2000", q)
	}
	if rep.DuplicateStates() != 0 {
		t.Errorf("SDS row has %d duplicate states", rep.DuplicateStates())
	}
}

// The seed picks constants, never the structural size.
func TestReconcileSeeds(t *testing.T) {
	a, ca := reconcileRun(t, sde.SDS, 1)
	b, cb := reconcileRun(t, sde.SDS, 2)
	if reflect.DeepEqual(ca, cb) {
		t.Errorf("seeds 1 and 2 chose the same constants %+v", ca)
	}
	sa, sb := float64(a.States()), float64(b.States())
	if sa < 0.9*sb || sb < 0.9*sa {
		t.Errorf("state counts differ by more than a tenth: %v vs %v", sa, sb)
	}
	if a.DScenarios().Cmp(b.DScenarios()) != 0 {
		t.Errorf("dscenarios differ between seeds: %s vs %s", a.DScenarios(), b.DScenarios())
	}
}
