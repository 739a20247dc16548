package sde_test

// Depth-horizon partitioning tests: exploration depth as the second
// shard dimension. A work item suspends at each absolute event-count
// horizon and fans its surviving frontier out as continuation items;
// the leaf set must still cover the space exactly, and a lease-granular
// (worker-path) execution must reproduce the in-process report
// bit-for-bit under the same (horizon, fanout) pair.

import (
	"strings"
	"testing"

	"sde"
	"sde/internal/shard"
)

func TestContinuationLabelAndDir(t *testing.T) {
	cases := []struct {
		item  sde.ShardItem
		label string
		dir   string
	}{
		{sde.ShardItem{}, "root", "root"},
		{sde.ShardItem{Cont: []sde.ContStep{{Seg: 0, Of: 2}}}, "root~0/2", "root-c0-2"},
		{sde.ShardItem{Depth: 2, Bits: 1, Cont: []sde.ContStep{{Seg: 1, Of: 2}, {Seg: 0, Of: 1}}},
			"01/2~1/2~0/1", "d2-01-c1-2-c0-1"},
	}
	for _, c := range cases {
		if got := c.item.Label(); got != c.label {
			t.Errorf("Label(%+v) = %q, want %q", c.item, got, c.label)
		}
		if got := c.item.Dir(); got != c.dir {
			t.Errorf("Dir(%+v) = %q, want %q", c.item, got, c.dir)
		}
	}
}

// horizonFor picks a per-algorithm depth horizon small enough that the
// reference workload suspends several times (total events: COB ~1238,
// COW ~163, SDS ~136).
func horizonFor(algo sde.Algorithm) uint64 {
	if algo == sde.COB {
		return 300
	}
	return 50
}

// TestDepthHorizonMatchesPlain: a horizon-partitioned run with zero
// shard bits must represent exactly the plain run's dscenario space, and
// the partition must genuinely fire (suspensions observed, several
// leaves for the sliceable COB frontier).
func TestDepthHorizonMatchesPlain(t *testing.T) {
	for _, algo := range sde.Algorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			scenario := shardScenario(t, algo)
			ref, err := sde.RunScenario(scenario)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sde.RunScenarioShardedWith(scenario, sde.ShardConfig{
				DepthHorizon: horizonFor(algo),
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Sched.Suspensions == 0 {
				t.Fatal("no suspensions: the horizon never fired")
			}
			if got.DScenarios().Cmp(ref.DScenarios()) != 0 {
				t.Errorf("dscenarios = %v, want %v", got.DScenarios(), ref.DScenarios())
			}
			if algo == sde.COB && len(got.Shards) < 2 {
				t.Errorf("COB horizon run produced %d leaves, want a real fan-out", len(got.Shards))
			}
			refSet := explodeFingerprints(ref)
			union := map[uint64]bool{}
			for _, sh := range got.Shards {
				for fp := range explodeFingerprints(sh.Report) {
					if union[fp] {
						t.Fatalf("dscenario %x appears in two leaves", fp)
					}
					union[fp] = true
				}
			}
			if len(union) != len(refSet) {
				t.Fatalf("leaf union has %d dscenarios, plain run %d", len(union), len(refSet))
			}
			for fp := range refSet {
				if !union[fp] {
					t.Fatal("leaf union is missing a plain-run dscenario")
				}
			}
		})
	}
}

// TestDepthHorizonDigestDeterministic: the (horizon, fanout) pair defines
// the partition, so two runs with the same pair — whatever the worker
// pool looks like — must produce byte-identical digests.
func TestDepthHorizonDigestDeterministic(t *testing.T) {
	scenario := shardScenario(t, sde.COB)
	cfg := sde.ShardConfig{ShardBits: 1, DepthHorizon: 300}
	a, err := sde.RunScenarioShardedWith(scenario, cfg)
	if err != nil {
		t.Fatal(err)
	}
	da, err := a.Digest(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	b, err := sde.RunScenarioShardedWith(scenario, cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest(4)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("digest differs across pool sizes:\n  %s\n  %s", da, db)
	}
}

// TestDepthLeaseRoundTrip is the distributed half of the bit-identity
// property for the depth dimension: executing the continuation tree
// lease by lease (the worker path) and assembling the shipped leaves
// must reproduce the in-process horizon-partitioned report's digest.
func TestDepthLeaseRoundTrip(t *testing.T) {
	for _, algo := range []sde.Algorithm{sde.COB, sde.SDS} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			scenario := shardScenario(t, algo)
			horizon := horizonFor(algo)
			ref, err := sde.RunScenarioShardedWith(scenario, sde.ShardConfig{
				DepthHorizon: horizon,
			})
			if err != nil {
				t.Fatal(err)
			}
			refDigest, err := ref.Digest(8)
			if err != nil {
				t.Fatal(err)
			}
			leaves := leaseCover(t, scenario, t.TempDir(), shard.Partition{DepthHorizon: horizon}, nil)
			if len(leaves) < 2 && algo == sde.COB {
				t.Fatalf("COB lease tree produced %d leaves, want a fan-out", len(leaves))
			}
			got, err := sde.AssembleSharded(scenario, leaves)
			if err != nil {
				t.Fatal(err)
			}
			gotDigest, err := got.Digest(8)
			if err != nil {
				t.Fatal(err)
			}
			if gotDigest != refDigest {
				t.Fatalf("assembled digest differs from in-process horizon run:\n  %s\n  %s",
					gotDigest, refDigest)
			}
		})
	}
}

// TestDepthHorizonViolationsFound: violations discovered before a
// horizon ride the carrier slice and survive continuation fan-out.
func TestDepthHorizonViolationsFound(t *testing.T) {
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
	ref, err := sde.RunScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sde.RunScenarioShardedWith(scenario, sde.ShardConfig{DepthHorizon: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got.Sched.Suspensions == 0 {
		t.Fatal("no suspensions: the horizon never fired")
	}
	if len(got.Violations()) != len(ref.Violations()) {
		t.Fatalf("horizon run found %d violations, plain run %d",
			len(got.Violations()), len(ref.Violations()))
	}
}

// TestAssembleShardedRejectsBadContinuationCovers extends the cover
// validation table to the depth dimension.
func TestAssembleShardedRejectsBadContinuationCovers(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)
	step := func(seg, of int) sde.ContStep { return sde.ContStep{Seg: seg, Of: of} }
	cases := []struct {
		name  string
		items []sde.ShardItem
		want  string
	}{
		{
			name:  "missing continuation slice",
			items: []sde.ShardItem{{Cont: []sde.ContStep{step(0, 2)}}},
			want:  "missing continuation slice",
		},
		{
			name: "duplicate continuation leaf",
			items: []sde.ShardItem{
				{Cont: []sde.ContStep{step(0, 2)}},
				{Cont: []sde.ContStep{step(0, 2)}},
				{Cont: []sde.ContStep{step(1, 2)}},
			},
			want: "twice",
		},
		{
			name: "continuation overlaps its parent",
			items: []sde.ShardItem{
				{},
				{Cont: []sde.ContStep{step(0, 2)}},
				{Cont: []sde.ContStep{step(1, 2)}},
			},
			want: "overlaps",
		},
		{
			name: "dangling deep slice",
			items: []sde.ShardItem{
				{Cont: []sde.ContStep{step(0, 2)}},
				{Cont: []sde.ContStep{step(1, 2), step(0, 2)}},
			},
			want: "missing continuation slice",
		},
		{
			name:  "invalid fan-out",
			items: []sde.ShardItem{{Cont: []sde.ContStep{step(0, 0)}}},
			want:  "fan-out",
		},
		{
			name:  "slice outside fan-out",
			items: []sde.ShardItem{{Cont: []sde.ContStep{step(2, 2)}}},
			want:  "outside [0, 2)",
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			leaves := make([]sde.ShardLeaf, len(c.items))
			for i, it := range c.items {
				leaves[i] = sde.ShardLeaf{Item: it}
			}
			_, err := sde.AssembleSharded(scenario, leaves)
			if err == nil {
				t.Fatalf("bad cover %v accepted", c.items)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestDepthHorizonComposesWithBits: both dimensions at once — bit
// pre-split plus depth horizon — still matches a rerun digest and the
// plain run's dscenario total.
func TestDepthHorizonComposesWithBits(t *testing.T) {
	scenario := shardScenario(t, sde.COB)
	ref, err := sde.RunScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sde.ShardConfig{ShardBits: 2, DepthHorizon: 200, HorizonFanout: 3}
	a, err := sde.RunScenarioShardedWith(scenario, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.DScenarios().Cmp(ref.DScenarios()) != 0 {
		t.Errorf("dscenarios = %v, want %v", a.DScenarios(), ref.DScenarios())
	}
	if len(a.Shards) <= 4 {
		t.Errorf("got %d leaves from 4 bit shards + horizon, want more than 4", len(a.Shards))
	}
	da, err := a.Digest(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sde.RunScenarioShardedWith(scenario, cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest(4)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("digest not deterministic:\n  %s\n  %s", da, db)
	}
}

// TestContinuationLeavesCountWorkOnce pins the slice rule for counters: a
// continuation leaf reports its ancestors' work only if it is slice 0 of
// their frontier, so the depth dimension adds nothing to the sum over
// leaves — in-process and through the lease path and AssembleSharded. On
// deepchain (22 leaves, 11 suspensions at this partition) the sum is the
// plain run's instruction count exactly; it was 3.3 times that while
// every slice kept the snapshot header's counter.
func TestContinuationLeavesCountWorkOnce(t *testing.T) {
	deepchain, err := sde.ScenarioSpec{Workload: "deepchain", Topology: "line:7", Iters: 128, Algorithm: "cob"}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	sum := func(rep *sde.ShardedReport) (n uint64) {
		for _, sh := range rep.Shards {
			n += sh.Report.Instructions()
		}
		if total := rep.Stats().VM.Instructions; total != n {
			t.Errorf("ShardedReport.Stats() counts %d instructions, its leaves %d", total, n)
		}
		return n
	}
	for _, tc := range []struct {
		name     string
		scenario sde.Scenario
		part     shard.Partition
	}{
		{"deepchain-depth", deepchain, shard.Partition{DepthHorizon: 400, HorizonFanout: 4}},
		{"grid-bits-x-depth", shardScenario(t, sde.COB), shard.Partition{ShardBits: 2, DepthHorizon: 200, HorizonFanout: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The reference is the same bit partition without the depth
			// dimension: the plain run when there are no bits (bit shards
			// each re-run the prefix before their pinned decision, which
			// is the bit partition's cost, not the depth one's).
			flat, err := sde.RunScenarioShardedWith(tc.scenario, sde.ShardConfig{Workers: 2, ShardBits: tc.part.ShardBits})
			if err != nil {
				t.Fatal(err)
			}
			want := sum(flat)
			if tc.part.ShardBits == 0 {
				plain, err := sde.RunScenario(tc.scenario)
				if err != nil {
					t.Fatal(err)
				}
				if plain.Instructions() != want {
					t.Fatalf("plain run executed %d instructions, the one-shard run %d", plain.Instructions(), want)
				}
			}
			got, err := sde.RunScenarioShardedWith(tc.scenario, sde.ShardConfig{
				Workers: 2, ShardBits: tc.part.ShardBits,
				DepthHorizon: tc.part.DepthHorizon, HorizonFanout: tc.part.HorizonFanout,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Sched.Suspensions == 0 || len(got.Shards) <= len(flat.Shards) {
				t.Fatalf("%d suspensions, %d leaves: the horizon never fanned out", got.Sched.Suspensions, len(got.Shards))
			}
			if n := sum(got); n != want {
				t.Errorf("in-process: %d leaves executed %d instructions, want %d (%.2fx)",
					len(got.Shards), n, want, float64(n)/float64(want))
			}
			t.Logf("%d leaves, %d suspensions, %d instructions", len(got.Shards), got.Sched.Suspensions, want)
			leased, err := sde.AssembleSharded(tc.scenario, leaseCover(t, tc.scenario, t.TempDir(), tc.part, nil))
			if err != nil {
				t.Fatal(err)
			}
			if n := sum(leased); n != want || len(leased.Shards) != len(got.Shards) {
				t.Errorf("leased and assembled: %d leaves executed %d instructions, want %d leaves and %d",
					len(leased.Shards), n, len(got.Shards), want)
			}
		})
	}
}
