package main

import (
	"strings"
	"testing"

	"sde"
)

// The flag-to-scenario translation lives in sde.ScenarioSpec and the layer
// flags in sde.Layers (both tested where they are defined); here we cover
// what remains local: the spec assembled from CLI defaults actually
// running, and the shardability note.

func TestSpecFromFlagsRuns(t *testing.T) {
	spec := sde.ScenarioSpec{
		Workload: "collect", Topology: "line:3", Algorithm: "sds", Packets: 2,
		Drops: "route",
	}
	s, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	report, err := sde.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if report.States() < 3 {
		t.Errorf("states = %d", report.States())
	}
	if !strings.Contains(report.Summary(), "SDS") {
		t.Errorf("summary = %q", report.Summary())
	}
}

// TestShardabilityNoteFlagPath: the flag-driven entry point must warn
// when the assembled scenario has symbolic-dependent branches (candidate
// shard points) but declares no shardable nodes — and stay quiet when the
// scenario is shardable. The service entry point surfaces the same note
// at job submission (covered in internal/dist); both go through
// Scenario.ShardabilityNote so the wording cannot drift.
func TestShardabilityNoteFlagPath(t *testing.T) {
	cases := []struct {
		name     string
		spec     sde.ScenarioSpec
		wantNote bool
	}{
		// threshold reads symbolic sensor inputs, so its branches are
		// candidate shard points even with every drop disabled — the
		// exact shape the warning exists for.
		{"sites-but-no-shardable-nodes", sde.ScenarioSpec{
			Workload: "threshold", Topology: "line:3", Algorithm: "sds",
			Packets: 2, Drops: "none",
		}, true},
		{"shardable", sde.ScenarioSpec{
			Workload: "collect", Topology: "line:3", Algorithm: "sds",
			Packets: 2, Drops: "route",
		}, false},
		// no symbolic-dependent branches at all: nothing to warn about.
		{"no-sites", sde.ScenarioSpec{
			Workload: "collect", Topology: "line:3", Algorithm: "sds",
			Packets: 2, Drops: "none",
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.spec.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			note := s.ShardabilityNote()
			if tc.wantNote {
				if note == "" {
					t.Fatal("expected a shardability note, got none")
				}
				if !strings.Contains(note, "cannot partition") {
					t.Errorf("note %q does not explain the consequence", note)
				}
				if len(s.ShardableSites()) == 0 {
					t.Error("note fired with no shardable sites")
				}
			} else if note != "" {
				t.Errorf("unexpected note for a shardable scenario: %q", note)
			}
		})
	}
}
