package sde_test

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"sde"
	"sde/internal/shard"
)

func TestShardItemLabelAndDir(t *testing.T) {
	cases := []struct {
		item  sde.ShardItem
		label string
		dir   string
	}{
		{sde.ShardItem{}, "root", "root"},
		{sde.ShardItem{Depth: 1, Bits: 0}, "0/1", "d1-0"},
		{sde.ShardItem{Depth: 1, Bits: 1}, "1/1", "d1-1"},
		{sde.ShardItem{Depth: 3, Bits: 5}, "101/3", "d3-101"},
	}
	for _, c := range cases {
		if got := c.item.Label(); got != c.label {
			t.Errorf("%+v Label = %q, want %q", c.item, got, c.label)
		}
		if got := c.item.Dir(); got != c.dir {
			t.Errorf("%+v Dir = %q, want %q", c.item, got, c.dir)
		}
	}
}

// leaseCover drives the worker path over the shard queue, exactly as the
// coordinator does minus the network: every task the partition's queue
// hands out runs as an isolated RunShardLease, a suspended lease's
// frontier goes back through Suspend, and a finished one's snapshot is
// collected as a leaf. split, when non-nil, names bit shards to cover by
// their two halves — one more decision pinned, each run whole — instead:
// a mixed-depth cover, which AssembleSharded accepts like any exact cover.
func leaseCover(t *testing.T, s sde.Scenario, root string, part shard.Partition, split func(sde.ShardItem) bool) []sde.ShardLeaf {
	t.Helper()
	q, err := shard.New[sde.ShardLeaf](part, s.MaxShardBits())
	if err != nil {
		t.Fatal(err)
	}
	run := func(it sde.ShardItem, task *shard.Task) *sde.LeaseOutcome {
		t.Helper()
		opts := sde.LeaseOptions{CheckpointDir: filepath.Join(root, it.Dir())}
		if task != nil {
			opts.EventTarget, opts.Continuation = task.Target, task.Parent
		}
		out, err := sde.RunShardLease(s, it, opts)
		switch {
		case err != nil:
			t.Fatalf("lease %s: %v", it.Label(), err)
		case out.Stopped:
			t.Fatalf("lease %s stopped without a progress hook", it.Label())
		case len(out.Snapshot) == 0:
			t.Fatalf("lease %s returned an empty snapshot", it.Label())
		}
		return out
	}
	var halves []sde.ShardLeaf
	for task := q.Take(0); task != nil; task = q.Take(0) {
		it := task.Item
		if split != nil && split(it) {
			if len(it.Cont) > 0 || it.Depth >= s.MaxShardBits() {
				t.Fatalf("lease %s cannot be split", it.Label())
			}
			q.Drop(task)
			for b := uint64(0); b <= 1; b++ {
				half := sde.ShardItem{Depth: it.Depth + 1, Bits: it.Bits | b<<uint(it.Depth)}
				halves = append(halves, sde.ShardLeaf{Item: half, Snapshot: run(half, nil).Snapshot})
			}
			continue
		}
		if out := run(it, task); out.Suspended {
			q.Suspend(task, out.Units, out.Events, out.Snapshot)
		} else {
			q.Leaf(task, sde.ShardLeaf{Item: it, Snapshot: out.Snapshot})
		}
	}
	return append(q.Leaves(), halves...)
}

// TestAssembleShardedBitIdentical is the service's core soundness
// property: executing every leaf as an isolated lease (the worker path)
// and reassembling the shipped checkpoints must reproduce the in-process
// sharded report bit-for-bit, as witnessed by the canonical digest.
func TestAssembleShardedBitIdentical(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)
	ref, err := sde.RunScenarioSharded(scenario, 2)
	if err != nil {
		t.Fatal(err)
	}
	refDigest, err := ref.Digest(8)
	if err != nil {
		t.Fatal(err)
	}

	leaves := leaseCover(t, scenario, t.TempDir(), shard.Partition{ShardBits: 2}, nil)
	got, err := sde.AssembleSharded(scenario, leaves)
	if err != nil {
		t.Fatal(err)
	}
	gotDigest, err := got.Digest(8)
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != refDigest {
		t.Errorf("assembled digest %s != in-process digest %s", gotDigest, refDigest)
	}
	if got.States() != ref.States() || got.DScenarios().Cmp(ref.DScenarios()) != 0 {
		t.Errorf("assembled states/dscenarios %d/%v != %d/%v",
			got.States(), got.DScenarios(), ref.States(), ref.DScenarios())
	}
	if got.Sched.Shards != 4 {
		t.Errorf("Sched.Shards = %d, want the 4 bit shards", got.Sched.Shards)
	}
}

// TestAssembledLeafCarriesLeaseCounters: the report AssembleSharded builds
// from a lease's shipped snapshot says what the lease did — the counters
// travel in the snapshot, so the coordinator of a fleet, which only ever
// sees snapshots, reports them. (Before the snapshot carried them this
// leaf read "compile: off", 0 queries, 0 speculations next to a correct
// instruction count.) Every counter is equal: the solver's — rebuilding a
// finished leaf makes no solver call — and the checkpoints', since a lease
// ships its leaf from memory and there is no final write to go uncounted.
func TestAssembledLeafCarriesLeaseCounters(t *testing.T) {
	scenario, err := sde.ScenarioSpec{Workload: "threshold", Topology: "line:4"}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	out, err := sde.RunShardLease(scenario, sde.ShardItem{}, sde.LeaseOptions{CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sde.AssembleSharded(scenario, []sde.ShardLeaf{{Snapshot: out.Snapshot}})
	if err != nil {
		t.Fatal(err)
	}
	lease, leaf := out.Report.Stats(), rep.Shards[0].Report.Stats()
	if lease.VM.FastBlocks == 0 || lease.Solver.Queries == 0 || lease.Spec.Submitted == 0 {
		t.Fatalf("the lease itself did not compile, query and speculate:\n%s", lease)
	}
	if leaf != lease {
		t.Errorf("assembled leaf's counters differ from the lease's:\n%s\nlease:\n%s", leaf, lease)
	}
	if rep.Stats() != rep.Shards[0].Report.Stats() {
		t.Error("a one-leaf report's Stats() is not its leaf's")
	}
}

// TestAssembleShardedMixedDepths covers the uneven partition a straggler
// re-split produces: one half explored whole, the other as two quarters.
func TestAssembleShardedMixedDepths(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)
	ref, err := sde.RunScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	leaves := leaseCover(t, scenario, t.TempDir(), shard.Partition{ShardBits: 1},
		func(it sde.ShardItem) bool { return it.Depth == 1 && it.Bits == 1 })
	if len(leaves) != 3 {
		t.Fatalf("%d leaves, want 0/1 whole plus the two quarters of 1/1", len(leaves))
	}
	got, err := sde.AssembleSharded(scenario, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if got.DScenarios().Cmp(ref.DScenarios()) != 0 {
		t.Errorf("dscenarios = %v, want %v", got.DScenarios(), ref.DScenarios())
	}
	gotSet := map[uint64]bool{}
	for _, sh := range got.Shards {
		for fp := range explodeFingerprints(sh.Report) {
			gotSet[fp] = true
		}
	}
	refSet := explodeFingerprints(ref)
	if len(gotSet) != len(refSet) {
		t.Fatalf("fingerprint sets differ: %d vs %d", len(gotSet), len(refSet))
	}
	for fp := range refSet {
		if !gotSet[fp] {
			t.Errorf("fingerprint %016x missing from assembled run", fp)
		}
	}
}

// TestAssembleShardedLeafOrder: AssembleSharded resumes the leaves side by
// side, so neither the order they are handed in nor the order they finish
// in may show — the report, its digest and the error for a bad leaf are
// those of the leaves in partition order. Run under -race in CI.
func TestAssembleShardedLeafOrder(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)
	leaves := leaseCover(t, scenario, t.TempDir(), shard.Partition{ShardBits: 2}, nil)
	assemble := func(leaves []sde.ShardLeaf) (string, []int) {
		t.Helper()
		rep, err := sde.AssembleSharded(scenario, leaves)
		if err != nil {
			t.Fatal(err)
		}
		digest, err := rep.Digest(8)
		if err != nil {
			t.Fatal(err)
		}
		states := make([]int, len(rep.Shards))
		for i, sh := range rep.Shards {
			states[i] = sh.Report.States()
		}
		return digest, states
	}
	wantDigest, wantStates := assemble(leaves)
	for rot := 1; rot < len(leaves); rot++ {
		order := append(append([]sde.ShardLeaf(nil), leaves[rot:]...), leaves[:rot]...)
		if rot%2 == 0 {
			slices.Reverse(order)
		}
		digest, states := assemble(order)
		if digest != wantDigest || !slices.Equal(states, wantStates) {
			t.Errorf("leaves rotated by %d: digest %s, per-shard states %v; want %s, %v",
				rot, digest, states, wantDigest, wantStates)
		}
	}

	// Two leaves that do not decode: the error is the earlier leaf's,
	// whichever goroutine gets there first.
	bad := append([]sde.ShardLeaf(nil), leaves...)
	for _, i := range []int{1, 3} {
		bad[i].Snapshot = bad[i].Snapshot[:len(bad[i].Snapshot)/2]
	}
	for try := 0; try < 8; try++ {
		_, err := sde.AssembleSharded(scenario, bad)
		if err == nil || !strings.Contains(err.Error(), "shard "+bad[1].Item.Label()+":") {
			t.Fatalf("error %v, want shard %s's", err, bad[1].Item.Label())
		}
	}
}

// TestLeaseCrashRecovery simulates the coordinator's crash story: a lease
// is cut short mid-run (the worker "crashed" after checkpointing), then
// re-issued against the same directory, resuming rather than restarting —
// and the assembled result is still bit-identical.
func TestLeaseCrashRecovery(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)
	ref, err := sde.RunScenarioSharded(scenario, 1)
	if err != nil {
		t.Fatal(err)
	}
	refDigest, err := ref.Digest(8)
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	crashed := sde.ShardItem{Depth: 1, Bits: 0}
	crashDir := filepath.Join(root, crashed.Dir())
	calls := 0
	out, err := sde.RunShardLease(scenario, crashed, sde.LeaseOptions{
		CheckpointDir:   crashDir,
		CheckpointEvery: 1,
		Progress: func(states int, elapsed time.Duration) bool {
			calls++
			return calls > 2 // stop shortly after the first checkpoints land
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Stopped {
		t.Fatal("progress hook did not stop the lease; lower the threshold")
	}
	if out.Snapshot != nil {
		t.Fatal("stopped lease must not ship a snapshot")
	}

	// Re-issue the lease: it must resume from the crashed worker's
	// checkpoint, not restart.
	retry, err := sde.RunShardLease(scenario, crashed, sde.LeaseOptions{CheckpointDir: crashDir})
	if err != nil {
		t.Fatal(err)
	}
	if retry.Stopped {
		t.Fatal("re-issued lease stopped")
	}
	if !retry.Report.Resumed() {
		t.Error("re-issued lease did not resume from the checkpoint")
	}

	other := sde.ShardItem{Depth: 1, Bits: 1}
	rest, err := sde.RunShardLease(scenario, other, sde.LeaseOptions{CheckpointDir: filepath.Join(root, other.Dir())})
	if err != nil {
		t.Fatal(err)
	}
	leaves := []sde.ShardLeaf{{Item: other, Snapshot: rest.Snapshot}, {Item: crashed, Snapshot: retry.Snapshot}}
	got, err := sde.AssembleSharded(scenario, leaves)
	if err != nil {
		t.Fatal(err)
	}
	gotDigest, err := got.Digest(8)
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != refDigest {
		t.Errorf("post-crash digest %s != reference %s", gotDigest, refDigest)
	}
}

func TestRunShardLeaseValidation(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)
	if _, err := sde.RunShardLease(scenario, sde.ShardItem{}, sde.LeaseOptions{}); err == nil {
		t.Error("missing checkpoint dir not rejected")
	}
	bad := sde.ShardItem{Depth: scenario.MaxShardBits() + 1}
	if _, err := sde.RunShardLease(scenario, bad, sde.LeaseOptions{CheckpointDir: t.TempDir()}); err == nil {
		t.Error("over-deep item not rejected")
	}
	wide := sde.ShardItem{Depth: 1, Bits: 2}
	if _, err := sde.RunShardLease(scenario, wide, sde.LeaseOptions{CheckpointDir: t.TempDir()}); err == nil {
		t.Error("bits wider than depth not rejected")
	}
}

func TestAssembleShardedRejectsBadCovers(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)
	whole := leaseCover(t, scenario, t.TempDir(), shard.Partition{}, nil)

	cases := []struct {
		name  string
		items []sde.ShardItem
		want  string
	}{
		{"empty", nil, "no shard leaves"},
		{"duplicate", []sde.ShardItem{{}, {}}, "twice"},
		{"gap", []sde.ShardItem{{Depth: 1, Bits: 0}}, "missing the sibling"},
		{"overlap", []sde.ShardItem{{}, {Depth: 1, Bits: 0}, {Depth: 1, Bits: 1}}, "overlaps"},
		{"nested overlap", []sde.ShardItem{
			{Depth: 1, Bits: 0},
			{Depth: 2, Bits: 0b00}, {Depth: 2, Bits: 0b10},
			{Depth: 1, Bits: 1},
		}, "overlaps"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Reuse the whole-space snapshot for every item: cover
			// validation happens before any resume, so the payload
			// bytes never matter here.
			leaves := make([]sde.ShardLeaf, len(c.items))
			for i, it := range c.items {
				leaves[i] = sde.ShardLeaf{Item: it, Snapshot: whole[0].Snapshot}
			}
			_, err := sde.AssembleSharded(scenario, leaves)
			if err == nil {
				t.Fatalf("bad cover %v accepted", c.items)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestDigestSensitivity checks the digest moves when observable outputs
// move, and ignores the test-case budget only when it is equal.
func TestDigestSensitivity(t *testing.T) {
	scenario := shardScenario(t, sde.SDS)
	a, err := sde.RunScenarioSharded(scenario, 1)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := a.Digest(4)
	if err != nil {
		t.Fatal(err)
	}
	d1again, err := a.Digest(4)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d1again {
		t.Error("digest is not deterministic")
	}

	smaller, err := sde.GridCollectScenario(sde.GridCollectOptions{
		Dim: 3, Algorithm: sde.SDS, Packets: 1, DropNodes: sde.DropRouteAndNeighbors,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sde.RunScenarioSharded(smaller, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := b.Digest(4)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Error("digests of different workloads collide")
	}
}
