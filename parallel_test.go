package sde_test

import (
	"fmt"
	"maps"
	"testing"

	"sde"
	"sde/internal/expr"
	"sde/internal/vm"
)

// shardScenario builds the reference workload for sharding tests.
func shardScenario(t *testing.T, algo sde.Algorithm) sde.Scenario {
	t.Helper()
	s, err := sde.GridCollectScenario(sde.GridCollectOptions{
		Dim:       3,
		Algorithm: algo,
		Packets:   2,
		DropNodes: sde.DropRouteAndNeighbors,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxShardBits() < 2 {
		t.Fatalf("MaxShardBits = %d, want >= 2 (both source neighbours armed)",
			s.MaxShardBits())
	}
	return s
}

func TestShardedMatchesUnsharded(t *testing.T) {
	for _, algo := range sde.Algorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			scenario := shardScenario(t, algo)
			ref, err := sde.RunScenario(scenario)
			if err != nil {
				t.Fatal(err)
			}
			for _, bits := range []int{0, 1, 2} {
				sharded, err := sde.RunScenarioSharded(scenario, bits)
				if err != nil {
					t.Fatal(err)
				}
				if len(sharded.Shards) != 1<<bits {
					t.Fatalf("bits=%d: shards = %d", bits, len(sharded.Shards))
				}
				// Shards partition the dscenario space exactly.
				if sharded.DScenarios().Cmp(ref.DScenarios()) != 0 {
					t.Errorf("bits=%d: dscenarios = %v, want %v",
						bits, sharded.DScenarios(), ref.DScenarios())
				}
				// Sharding can only lose sharing, never coverage.
				if sharded.States() < ref.States() {
					t.Errorf("bits=%d: states = %d below unsharded %d",
						bits, sharded.States(), ref.States())
				}
				if aborted, reason := sharded.Aborted(); aborted {
					t.Errorf("bits=%d: aborted: %s", bits, reason)
				}
			}
		})
	}
}

// TestShardedScenarioSetsEqual is the strong oracle: the union of the
// shards' exploded dscenario fingerprints must equal the unsharded set.
func TestShardedScenarioSetsEqual(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)
	ref, err := sde.RunScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	refSet := explodeFingerprints(ref)
	sharded, err := sde.RunScenarioSharded(scenario, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for _, sh := range sharded.Shards {
		for fp := range explodeFingerprints(sh.Report) {
			if got[fp] {
				t.Fatalf("dscenario %x appears in two shards", fp)
			}
			got[fp] = true
		}
	}
	if len(got) != len(refSet) {
		t.Fatalf("sharded union has %d dscenarios, unsharded %d", len(got), len(refSet))
	}
	for fp := range refSet {
		if !got[fp] {
			t.Fatal("sharded union is missing an unsharded dscenario")
		}
	}
}

func explodeFingerprints(r *sde.Report) map[uint64]bool {
	out := map[uint64]bool{}
	for _, sc := range r.Result().Mapper.Explode(0) {
		h := uint64(14695981039346656037)
		for _, s := range sc {
			h ^= s.Fingerprint()
			h *= 1099511628211
		}
		out[h] = true
	}
	return out
}

func TestShardedViolationsFound(t *testing.T) {
	// The duplication bug must be found by the shard exploring the
	// failure branch, with a witness that still replays.
	scenario, err := sde.LineCollectScenario(sde.LineCollectOptions{
		K:         3,
		Algorithm: sde.SDS,
		Packets:   2,
		Failures: sde.FailurePlan{
			DropFirst:      map[int]bool{1: true},
			DuplicateFirst: map[int]bool{0: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := sde.RunScenarioSharded(scenario, 1)
	if err != nil {
		t.Fatal(err)
	}
	violations := sharded.Violations()
	if len(violations) == 0 {
		t.Fatal("sharded run missed the duplication bug")
	}
	found := false
	for _, sh := range sharded.Shards {
		for _, v := range sh.Report.Violations() {
			ok, _, err := sh.Report.ReplayViolation(v)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				found = true
			}
		}
	}
	if !found {
		t.Error("no shard violation replayed successfully")
	}
}

// floodScenario builds a 3x3 grid flood with a duplicate-beacon
// assertion: the center originates one beacon at t=1 (marking itself as
// served), every node relays its first reception, and a second reception
// is a violation. Symbolic first-reception drops are armed on the
// center's edge ring {1, 3, 5, 7}, each a radio neighbour of the
// originator and so shardable, and the violation times depend on which
// ring nodes dropped.
func floodScenario(t *testing.T, algo sde.Algorithm) sde.Scenario {
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
	scenario, err := sde.CustomScenario("3x3 flood", sde.CustomConfig{
		Topology:       sde.Grid(3, 3),
		Program:        prog,
		Algorithm:      algo,
		HorizonTicks:   14,
		Failures:       sde.FailurePlan{DropFirst: sde.NodeSet([]int{1, 3, 5, 7})},
		ShardableNodes: []int{1, 3, 5, 7},
		NodeInit: func(node int, s *vm.State, eb *expr.Builder) {
			if node == center {
				s.StoreWord(addrRole, eb.Const(1, vm.WordBits))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return scenario
}

// violationTriples projects violations to their distinct (node, time,
// msg) triples.
func violationTriples(vs []*sde.Violation) map[string]bool {
	set := make(map[string]bool, len(vs))
	for _, v := range vs {
		set[fmt.Sprintf("%d/%d/%s", v.Node, v.Time, v.Msg)] = true
	}
	return set
}

// TestShardedReduction: SDS's state sharing, cut into shards, still finds
// exactly the violation triples of an unsharded COB run, and the sharded
// report reduces its leaves' violations to their concatenation in shard
// order — each one observed on a path its shard executed, so it replays
// there.
func TestShardedReduction(t *testing.T) {
	ref, err := sde.RunScenario(floodScenario(t, sde.COB))
	if err != nil {
		t.Fatal(err)
	}
	refSet := violationTriples(ref.Violations())
	if len(refSet) == 0 {
		t.Fatal("reference run produced no violations; the oracle proves nothing")
	}
	for _, bits := range []int{1, 2} {
		sharded, err := sde.RunScenarioSharded(floodScenario(t, sde.SDS), bits)
		if err != nil {
			t.Fatal(err)
		}
		if aborted, reason := sharded.Aborted(); aborted {
			t.Fatalf("bits=%d: aborted: %s", bits, reason)
		}
		if sharded.DScenarios().Cmp(ref.DScenarios()) != 0 {
			t.Errorf("bits=%d: dscenarios = %v, want %v", bits, sharded.DScenarios(), ref.DScenarios())
		}
		got := violationTriples(sharded.Violations())
		if !maps.Equal(got, refSet) {
			t.Errorf("bits=%d: violation triples %v, unsharded COB %v", bits, got, refSet)
		}
		var concat []*sde.Violation
		for _, sh := range sharded.Shards {
			for _, v := range sh.Report.Violations() {
				concat = append(concat, v)
				ok, _, err := sh.Report.ReplayViolation(v)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Errorf("bits=%d: shard %d violation %d/%d/%s does not replay", bits, sh.Shard, v.Node, v.Time, v.Msg)
				}
			}
		}
		all := sharded.Violations()
		if len(all) != len(concat) {
			t.Fatalf("bits=%d: %d violations, the leaves hold %d", bits, len(all), len(concat))
		}
		for i := range all {
			if all[i] != concat[i] {
				t.Errorf("bits=%d: violation %d is not the leaves' in shard order", bits, i)
				break
			}
		}
	}
}

func TestShardedValidation(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)
	if _, err := sde.RunScenarioSharded(scenario, 50); err == nil {
		t.Error("more shard bits than armed nodes accepted")
	}
	if _, err := sde.RunScenarioSharded(scenario, -1); err == nil {
		t.Error("negative shard bits accepted")
	}
}

func TestShardedWallIsMakespan(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)
	sharded, err := sde.RunScenarioSharded(scenario, 1)
	if err != nil {
		t.Fatal(err)
	}
	makespan := sharded.Wall()
	for _, sh := range sharded.Shards {
		if sh.Report.Wall() > makespan {
			t.Error("a shard's wall time exceeds the reported makespan")
		}
	}
}

// TestAdaptiveSplittingDeterministic: a work-stealing run that splits
// aggressively must still explore exactly the unsharded dscenario set —
// the leaf partition varies with scheduling, the union never does.
func TestAdaptiveSplittingDeterministic(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)
	ref, err := sde.RunScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	refSet := explodeFingerprints(ref)
	sharded, err := sde.RunScenarioShardedWith(scenario, sde.ShardConfig{
		ShardBits:         0,
		MaxSplitBits:      2,
		SplitThreshold:    1, // everything is a straggler: force splits
		Workers:           2,
		SharedSolverCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Sched.Splits == 0 {
		t.Error("SplitThreshold=1 run recorded no splits")
	}
	if sharded.Sched.Shards != len(sharded.Shards) {
		t.Errorf("Sched.Shards = %d, report has %d shards",
			sharded.Sched.Shards, len(sharded.Shards))
	}
	if sharded.DScenarios().Cmp(ref.DScenarios()) != 0 {
		t.Errorf("dscenarios = %v, want %v", sharded.DScenarios(), ref.DScenarios())
	}
	got := map[uint64]bool{}
	for _, sh := range sharded.Shards {
		for fp := range explodeFingerprints(sh.Report) {
			if got[fp] {
				t.Fatalf("dscenario %x appears in two shards", fp)
			}
			got[fp] = true
		}
	}
	if len(got) != len(refSet) {
		t.Fatalf("adaptive union has %d dscenarios, unsharded %d", len(got), len(refSet))
	}
	for fp := range refSet {
		if !got[fp] {
			t.Fatal("adaptive union is missing an unsharded dscenario")
		}
	}
}

// TestAdaptiveFindsSameViolations: the work-stealing scheduler finds the
// same violation set as a static sharded run and an unsharded run, and
// its witnesses replay. Violations are compared by (node, time, message)
// — state ids and witness models legitimately vary across partitionings.
func TestAdaptiveFindsSameViolations(t *testing.T) {
	scenario, err := sde.LineCollectScenario(sde.LineCollectOptions{
		K:         3,
		Algorithm: sde.SDS,
		Packets:   2,
		Failures: sde.FailurePlan{
			DropFirst:      map[int]bool{1: true},
			DuplicateFirst: map[int]bool{0: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	violationKeys := func(vs []*sde.Violation) map[string]int {
		keys := map[string]int{}
		for _, v := range vs {
			keys[fmt.Sprintf("n%d t%d %s", v.Node, v.Time, v.Msg)]++
		}
		return keys
	}
	ref, err := sde.RunScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	static, err := sde.RunScenarioSharded(scenario, 1)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := sde.RunScenarioShardedWith(scenario, sde.ShardConfig{
		MaxSplitBits:   1,
		SplitThreshold: 1,
		Workers:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := violationKeys(ref.Violations())
	if len(want) == 0 {
		t.Fatal("reference run found no violations")
	}
	for name, got := range map[string]map[string]int{
		"static":   violationKeys(static.Violations()),
		"adaptive": violationKeys(adaptive.Violations()),
	} {
		if !maps.Equal(got, want) {
			t.Errorf("%s violations = %v, want %v", name, got, want)
		}
	}
	for _, sh := range adaptive.Shards {
		for _, v := range sh.Report.Violations() {
			ok, _, err := sh.Report.ReplayViolation(v)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("adaptive shard %d violation did not replay", sh.Shard)
			}
		}
	}
}

// skewedScenario is a workload with real solver traffic and a skewed
// dscenario space: node 0 broadcasts once at boot, and every receiver
// forks depth symbolic branches on compound conditions (each fork costs
// two feasibility queries). Receivers are armed DropFirst and declared
// shardable, so the sub-spaces where drops occur are cheap (on_recv
// never runs) while the all-delivered sub-space pays 2^depth forks per
// receiver — the load imbalance adaptive splitting is built for.
func skewedScenario(t testing.TB, k, depth int, algo sde.Algorithm) sde.Scenario {
	pb := sde.NewProgramBuilder()
	boot := pb.Func("boot")
	boot.NodeID(sde.R1)
	boot.BrNZ(sde.R1, "done")
	boot.MovI(sde.R2, 0x100)
	boot.MovI(sde.R3, sde.BroadcastAddr)
	boot.Send(sde.R3, sde.R2, 1)
	boot.Label("done")
	boot.Ret()
	recv := pb.Func("on_recv")
	for i := 0; i < depth; i++ {
		recv.Sym(sde.R5, fmt.Sprintf("x%d", i), 8)
		recv.MulI(sde.R6, sde.R5, 3)
		recv.UltI(sde.R7, sde.R6, 100)
		recv.BrNZ(sde.R7, fmt.Sprintf("l%d", i))
		recv.Label(fmt.Sprintf("l%d", i))
	}
	recv.Ret()
	prog, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	receivers := make([]int, 0, k-1)
	for n := 1; n < k; n++ {
		receivers = append(receivers, n)
	}
	scenario, err := sde.CustomScenario("skewed", sde.CustomConfig{
		Topology:       sde.FullMesh(k),
		Program:        prog,
		Algorithm:      algo,
		HorizonTicks:   100,
		Failures:       sde.FailurePlan{DropFirst: sde.NodeSet(receivers)},
		ShardableNodes: receivers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scenario
}

// TestShardedSchedTelemetry: the scheduler reports coherent telemetry,
// including cross-shard solver-cache reuse on a workload with real
// solver traffic.
func TestShardedSchedTelemetry(t *testing.T) {
	scenario := skewedScenario(t, 3, 2, sde.SDS)
	if scenario.MaxShardBits() != 2 {
		t.Fatalf("MaxShardBits = %d, want 2", scenario.MaxShardBits())
	}
	sharded, err := sde.RunScenarioShardedWith(scenario, sde.ShardConfig{
		ShardBits:         2,
		Workers:           3,
		SharedSolverCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := sharded.Sched
	if sched.Workers != 3 {
		t.Errorf("Workers = %d, want 3", sched.Workers)
	}
	if len(sched.WorkerBusy) != 3 {
		t.Errorf("WorkerBusy has %d entries, want 3", len(sched.WorkerBusy))
	}
	if sched.Shards != 4 {
		t.Errorf("Shards = %d, want 4", sched.Shards)
	}
	if sched.Splits != 0 {
		t.Errorf("static run recorded %d splits", sched.Splits)
	}
	if sched.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	for i, u := range sched.Utilization() {
		if u < 0 || u > 1 {
			t.Errorf("worker %d utilisation %v out of range", i, u)
		}
	}
	if sched.SharedLookups == 0 {
		t.Error("shared cache enabled but no lookups recorded")
	}
	if sched.SharedHits == 0 {
		t.Error("no cross-shard cache hits on four sibling shards")
	}
	if hr := sched.SharedHitRate(); hr <= 0 || hr > 1 {
		t.Errorf("SharedHitRate() = %v out of range", hr)
	}
}
