package sde_test

import (
	"encoding/json"
	"strings"
	"testing"

	"sde"
)

func TestParseAlgorithm(t *testing.T) {
	tests := []struct {
		in   string
		want sde.Algorithm
		ok   bool
	}{
		{"cob", sde.COB, true},
		{"COW", sde.COW, true},
		{"Sds", sde.SDS, true},
		{"klee", 0, false},
		{"", 0, false},
	}
	for _, tt := range tests {
		got, err := sde.ParseAlgorithm(tt.in)
		if (err == nil) != tt.ok {
			t.Errorf("ParseAlgorithm(%q) err = %v", tt.in, err)
			continue
		}
		if tt.ok && got != tt.want {
			t.Errorf("ParseAlgorithm(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseTopology(t *testing.T) {
	kind, size, err := sde.ParseTopology("grid:5")
	if err != nil || kind != "grid" || size != 5 {
		t.Errorf("ParseTopology(grid:5) = %q, %d, %v", kind, size, err)
	}
	for _, bad := range []string{"grid", "grid:", "grid:x", "grid:1", ":5"} {
		if _, _, err := sde.ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) accepted", bad)
		}
	}
}

func TestParseFailurePlan(t *testing.T) {
	plan, err := sde.ParseFailurePlan("dup:0,reboot:3,drop:1,drop:2")
	if err != nil {
		t.Fatal(err)
	}
	if !plan.DuplicateFirst[0] || !plan.RebootOnFirst[3] || !plan.DropFirst[1] || !plan.DropFirst[2] {
		t.Errorf("plan = %+v", plan)
	}
	if plan2, err := sde.ParseFailurePlan(""); err != nil || plan2.DropFirst != nil {
		t.Errorf("empty spec: %+v, %v", plan2, err)
	}
	for _, bad := range []string{"dup", "dup:x", "explode:1"} {
		if _, err := sde.ParseFailurePlan(bad); err == nil {
			t.Errorf("ParseFailurePlan(%q) accepted", bad)
		}
	}
}

func TestScenarioSpecCombos(t *testing.T) {
	good := []sde.ScenarioSpec{
		{Workload: "collect", Topology: "grid:4", Drops: "route"},
		{Workload: "collect", Topology: "grid:4", Drops: "route+neighbors"},
		{Workload: "collect", Topology: "grid:4", Drops: "none"},
		{Workload: "collect", Topology: "line:3", Drops: "route", Failures: "dup:0"},
		{Workload: "flood", Topology: "mesh:4"},
		{Workload: "runicast", Topology: "line:3", Packets: 1},
		{Workload: "threshold", Topology: "line:3"},
		{Workload: "discovery", Topology: "grid:3"},
		{Workload: "discovery", Topology: "line:3", Drops: "none"},
		{Workload: "discovery", Topology: "mesh:3"},
		{Topology: "grid:3"}, // defaults: collect, sds, route
	}
	for _, spec := range good {
		s, err := spec.Scenario()
		if err != nil {
			t.Errorf("spec %v: %v", spec, err)
			continue
		}
		if s.Description() == "" {
			t.Errorf("spec %v: empty description", spec)
		}
	}
	bad := []sde.ScenarioSpec{
		{Workload: "collect", Topology: "mesh:4"},                     // unsupported combo
		{Workload: "flood", Topology: "grid:4"},                       // unsupported combo
		{Workload: "collect", Topology: "grid:4", Drops: "banana"},    // bad drop selection
		{Workload: "collect", Topology: "grid:4", Failures: "dup:0"},  // grid rejects failures
		{Workload: "collect", Topology: "grid:4", Failures: "drop:0"}, // even drop failures
		{Workload: "discovery", Topology: "ring:4"},                   // unknown topology kind
		{Workload: "collect", Topology: "grid"},                       // malformed topology
		{Workload: "collect", Topology: "grid:3", Algorithm: "klee"},  // unknown algorithm
	}
	for _, spec := range bad {
		if _, err := spec.Scenario(); err == nil {
			t.Errorf("spec %v accepted", spec)
		}
	}
}

// TestScenarioSpecDeterministic is the property the exploration service
// leans on: the coordinator and a worker materialising the same spec in
// different processes must explore identical spaces. Two independent
// materialisations must therefore produce bit-identical reports.
func TestScenarioSpecDeterministic(t *testing.T) {
	spec := sde.ScenarioSpec{
		Workload: "collect", Topology: "grid:3", Packets: 2,
		Drops: "route+neighbors",
	}
	digests := make([]string, 2)
	for i := range digests {
		s, err := spec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sde.RunScenarioSharded(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		digests[i], err = rep.Digest(8)
		if err != nil {
			t.Fatal(err)
		}
	}
	if digests[0] != digests[1] {
		t.Errorf("independent materialisations diverge: %s vs %s", digests[0], digests[1])
	}
}

func TestScenarioSpecJSONRoundTrip(t *testing.T) {
	spec := sde.ScenarioSpec{
		Workload: "collect", Topology: "grid:3", Algorithm: "cow",
		Packets: 2, Drops: "none", MaxStates: 100,
		Layers: sde.Layers{NoCompile: true, NoSpeculate: true},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back sde.ScenarioSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != spec {
		t.Errorf("round trip: %+v != %+v", back, spec)
	}
	// Omitted optional fields unmarshal to working defaults.
	var min sde.ScenarioSpec
	if err := json.Unmarshal([]byte(`{"workload":"collect","topology":"grid:3"}`), &min); err != nil {
		t.Fatal(err)
	}
	if _, err := min.Scenario(); err != nil {
		t.Errorf("minimal spec does not materialise: %v", err)
	}
	if min.Layers != (sde.Layers{}) {
		t.Errorf("omitted layers = %v, want the defaults", min.Layers)
	}
	// The layers field is Layers' textual form; unnamed layers keep their
	// default and unknown ones — a deleted layer's too — are refused by name.
	var some sde.ScenarioSpec
	if err := json.Unmarshal([]byte(`{"topology":"grid:3","layers":"no-compile"}`), &some); err != nil {
		t.Fatal(err)
	}
	if want := (sde.Layers{NoCompile: true}); some.Layers != want {
		t.Errorf("layers = %v, want %v", some.Layers, want)
	}
	for _, c := range []struct{ layers, refused string }{
		{"turbo", `"turbo"`},
		{"no-compile,no-qopt", `"no-qopt"`},
	} {
		err := json.Unmarshal([]byte(`{"topology":"grid:3","layers":"`+c.layers+`"}`), &some)
		if err == nil || !strings.Contains(err.Error(), c.refused) {
			t.Errorf("layers %q: err = %v, want a refusal naming %s", c.layers, err, c.refused)
		}
	}
}
