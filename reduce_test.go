package sde_test

// Symmetry-reduction tests at the public API level: the Scenario knob,
// and reduction under sharding — each shard canonicalizes only inside
// its pinned sub-space, and the aggregated report must still recover
// the full violation set, with synthesized orbit twins deduplicated
// across leaves.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"sde"
	"sde/internal/expr"
	"sde/internal/vm"
)

// reduceFloodScenario builds a 3x3 grid flood with a duplicate-beacon
// assertion: the center originates one beacon at t=1 (marking itself as
// served), every node relays its first reception, and a second reception
// is a violation. Symbolic first-reception drops are armed on the
// center's edge ring {1, 3, 5, 7} — a full orbit of the dihedral group
// that survives stabilization by the declared center label — and the
// violation times depend on which ring nodes dropped, so reduced runs
// must synthesize some violations back from pruned orbit members.
func reduceFloodScenario(t *testing.T) sde.Scenario {
	t.Helper()
	const (
		addrRole = 0x40
		addrSeen = 0x20
		txBuf    = 0x100
	)
	b := sde.NewProgramBuilder()

	boot := b.Func("boot")
	boot.MovI(sde.R3, 0)
	boot.Load(sde.R1, sde.R3, addrRole)
	boot.BrZ(sde.R1, "silent")
	boot.Timer("bcast", sde.R1, sde.R0)
	boot.Label("silent")
	boot.Ret()

	bcast := b.Func("bcast")
	bcast.MovI(sde.R3, 0)
	bcast.MovI(sde.R5, 1)
	bcast.Store(sde.R3, addrSeen, sde.R5)
	bcast.MovI(sde.R4, txBuf)
	bcast.MovI(sde.R5, 0xF100)
	bcast.Store(sde.R4, 0, sde.R5)
	bcast.MovI(sde.R6, sde.BroadcastAddr)
	bcast.Send(sde.R6, sde.R4, 1)
	bcast.Ret()

	recv := b.Func("on_recv")
	recv.MovI(sde.R3, 0)
	recv.Load(sde.R4, sde.R3, addrSeen)
	recv.AddI(sde.R4, sde.R4, 1)
	recv.Store(sde.R3, addrSeen, sde.R4)
	recv.NeI(sde.R5, sde.R4, 2)
	recv.Assert(sde.R5, "flood: duplicate beacon")
	recv.EqI(sde.R6, sde.R4, 1)
	recv.BrZ(sde.R6, "norelay")
	recv.MovI(sde.R7, txBuf)
	recv.MovI(sde.R8, 0xF100)
	recv.Store(sde.R7, 0, sde.R8)
	recv.MovI(sde.R9, sde.BroadcastAddr)
	recv.Send(sde.R9, sde.R7, 1)
	recv.Label("norelay")
	recv.Ret()

	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	const center = 4
	labels := make([]uint64, 9)
	labels[center] = 1
	scenario, err := sde.CustomScenario("3x3 reduction flood", sde.CustomConfig{
		Topology:       sde.Grid(3, 3),
		Program:        prog,
		Algorithm:      sde.COB,
		HorizonTicks:   14,
		Failures:       sde.FailurePlan{DropFirst: sde.NodeSet([]int{1, 3, 5, 7})},
		ShardableNodes: []int{1, 3, 5, 7},
		NodeInit: func(node int, s *vm.State, eb *expr.Builder) {
			if node == center {
				s.StoreWord(addrRole, eb.Const(1, vm.WordBits))
			}
		},
		Symmetry: &sde.SymmetrySpec{Labels: labels},
	})
	if err != nil {
		t.Fatal(err)
	}
	return scenario
}

// violationTriples projects violations to the set of distinct
// (node, time, msg) triples — the observable reduction preserves.
func violationTriples(vs []*sde.Violation) map[string]bool {
	set := make(map[string]bool, len(vs))
	for _, v := range vs {
		set[fmt.Sprintf("%d/%d/%s", v.Node, v.Time, v.Msg)] = true
	}
	return set
}

// TestShardedReduction: a sharded run with reduction enabled in every
// shard must recover exactly the violation set of an unsharded,
// unreduced run. Each shard's reducer works with the group stabilized by
// the shard's pins, and the aggregated report deduplicates the
// synthesized orbit twins the leaves re-report.
func TestShardedReduction(t *testing.T) {
	scenario := reduceFloodScenario(t)
	ref, err := sde.RunScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	refSet := violationTriples(ref.Violations())
	if len(refSet) == 0 {
		t.Fatal("reference run produced no violations; the oracle proves nothing")
	}

	reduced, err := sde.RunScenario(scenario.WithReduction())
	if err != nil {
		t.Fatal(err)
	}
	if rs := reduced.ReduceStats(); rs.Pins == 0 {
		t.Errorf("unsharded reduced run pinned nothing: %+v", rs)
	}

	for _, bits := range []int{1, 2} {
		sharded, err := sde.RunScenarioSharded(scenario.WithReduction(), bits)
		if err != nil {
			t.Fatal(err)
		}
		if aborted, reason := sharded.Aborted(); aborted {
			t.Fatalf("bits=%d: aborted: %s", bits, reason)
		}
		got := violationTriples(sharded.Violations())
		for k := range refSet {
			if !got[k] {
				t.Errorf("bits=%d: violation %s missing", bits, k)
			}
		}
		for k := range got {
			if !refSet[k] {
				t.Errorf("bits=%d: violation %s is spurious", bits, k)
			}
		}
		// The aggregated violation list must not carry duplicate
		// synthesized triples: a triple synthesized by several leaves is
		// reported once, and never alongside an observed copy.
		seenSynth := map[string]bool{}
		for _, v := range sharded.Violations() {
			if !v.Synthesized {
				continue
			}
			k := fmt.Sprintf("%d/%d/%s", v.Node, v.Time, v.Msg)
			if seenSynth[k] {
				t.Errorf("bits=%d: synthesized violation %s reported twice", bits, k)
			}
			seenSynth[k] = true
		}
	}
}

// TestReducedReportJSON: the JSON projection of a reduced run carries
// the reduction counters and distinguishes synthesized violations from
// observed ones, so external tooling can tell replayed evidence from
// orbit closure.
func TestReducedReportJSON(t *testing.T) {
	scenario := reduceFloodScenario(t)
	report, err := sde.RunScenario(scenario.WithReduction())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, 0); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded sde.ReportJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	// The projection embeds the run's one stats value: every part, not a
	// hand-picked subset of the reduction's.
	rs := report.ReduceStats()
	if rs.Pins == 0 || decoded.Stats != report.Stats() {
		t.Errorf("JSON stats = %+v, want the report's %+v", decoded.Stats, report.Stats())
	}
	synth, observed := 0, 0
	for _, v := range decoded.Violations {
		if v.Synthesized {
			synth++
		} else {
			observed++
		}
	}
	if synth != rs.Synthesized {
		t.Errorf("JSON carries %d synthesized violations, stats say %d", synth, rs.Synthesized)
	}
	if synth == 0 || observed == 0 {
		t.Errorf("want both synthesized (%d) and observed (%d) violations in JSON", synth, observed)
	}
}
