package sde_test

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"sde"
	"sde/internal/expr"
	"sde/internal/metrics"
	"sde/internal/shard"
	"sde/internal/snap"
)

// decodeTimeless decodes a snapshot and zeroes what legitimately differs
// between two executions of the same item: wall-clock readings and the
// checkpoint counters (a durable run has written checkpoints a lease has
// not). It returns the snapshot and its canonical re-encoding.
func decodeTimeless(t *testing.T, what string, data []byte) (*snap.Snapshot, []byte) {
	t.Helper()
	b := expr.NewBuilder()
	sp, err := snap.Decode(data, b)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	sp.PriorWall = 0
	sp.Stats.Checkpoint = metrics.RunStats{}.Checkpoint
	for i := range sp.Samples {
		sp.Samples[i].Wall = 0
	}
	out, err := sp.Encode(b)
	if err != nil {
		t.Fatalf("%s: re-encoding: %v", what, err)
	}
	return sp, out
}

// TestLeaseShipsWhatTheDirectoryHolds: what a lease hands back from memory
// — a finished leaf, a suspended frontier — is the snapshot the durable
// in-process run of the same item leaves in its checkpoint directory, field
// for field apart from wall-clock readings and the checkpoint counters.
func TestLeaseShipsWhatTheDirectoryHolds(t *testing.T) {
	for _, algo := range sde.Algorithms {
		t.Run(algo.String(), func(t *testing.T) {
			scenario := shardScenario(t, algo)
			part := shard.Partition{ShardBits: 1, DepthHorizon: horizonFor(algo)}

			// The directory path: every item, suspended or finished, ends
			// with its final snapshot in its own subdirectory.
			root := t.TempDir()
			if _, err := sde.RunScenarioShardedWith(scenario, sde.ShardConfig{
				ShardBits: part.ShardBits, DepthHorizon: part.DepthHorizon, CheckpointDir: root,
			}); err != nil {
				t.Fatal(err)
			}

			// The lease path, over the same queue.
			q, err := shard.New[sde.ShardLeaf](part, scenario.MaxShardBits(), scenario.MaxShardBits())
			if err != nil {
				t.Fatal(err)
			}
			var suspended, finished int
			for task := q.Take(0); task != nil; task = q.Take(0) {
				it := task.Item
				out, err := sde.RunShardLease(scenario, it, sde.LeaseOptions{
					CheckpointDir: filepath.Join(t.TempDir(), it.Dir()),
					EventTarget:   task.Target,
					Continuation:  task.Parent,
				})
				if err != nil {
					t.Fatalf("lease %s: %v", it.Label(), err)
				}
				if out.Suspended {
					suspended++
					q.Suspend(task, out.Units, out.Events, out.Snapshot)
				} else {
					finished++
					q.Leaf(task, sde.ShardLeaf{Item: it, Snapshot: out.Snapshot})
				}

				file, err := snap.LoadBytes(filepath.Join(root, it.Dir()))
				if err != nil {
					t.Fatalf("item %s: the durable run left no checkpoint: %v", it.Label(), err)
				}
				want, wantBytes := decodeTimeless(t, "file of "+it.Label(), file)
				got, gotBytes := decodeTimeless(t, "lease "+it.Label(), out.Snapshot)
				if bytes.Equal(gotBytes, wantBytes) {
					continue
				}
				gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
				for i := 0; i < gv.NumField(); i++ {
					if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
						t.Errorf("item %s (suspended=%v): shipped snapshot differs from the file in %s",
							it.Label(), out.Suspended, gv.Type().Field(i).Name)
					}
				}
				t.Fatalf("item %s: shipped snapshot re-encodes to %d bytes, the file to %d",
					it.Label(), len(gotBytes), len(wantBytes))
			}
			if suspended == 0 || finished == 0 {
				t.Fatalf("%d suspended and %d finished leases: the partition must produce both", suspended, finished)
			}
		})
	}
}
