package sde_test

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
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
// not). It returns the snapshot and its canonical re-encoding, or the
// decoder's error.
func decodeTimeless(t *testing.T, what string, data []byte) (*snap.Snapshot, []byte, error) {
	t.Helper()
	b := expr.NewBuilder()
	sp, err := snap.Decode(data, b)
	if err != nil {
		return nil, nil, err
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
	return sp, out, nil
}

// TestLeaseShipsWhatTheDirectoryHolds: what a lease hands back from memory
// — a finished leaf, a suspended frontier — is the snapshot the durable
// in-process run of the same item leaves in its checkpoint directory, field
// for field apart from wall-clock readings and the checkpoint counters. The
// merged cases hold the snapshot to being taken before the merged frontier
// is dissolved for the report. (A COB leaf holding merged representatives
// does not decode — a defect older than this test, see ROADMAP item 4 — and
// there the two must be rejected for the same reason.)
func TestLeaseShipsWhatTheDirectoryHolds(t *testing.T) {
	for _, algo := range sde.Algorithms {
		for _, merge := range []bool{false, true} {
			name := algo.String()
			if merge {
				name += "/merge"
			}
			t.Run(name, func(t *testing.T) {
				scenario := shardScenario(t, algo)
				if merge {
					scenario = scenario.WithMerging()
				}
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
				var suspended, finished, reps int
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
					want, wantBytes, werr := decodeTimeless(t, "file of "+it.Label(), file)
					got, gotBytes, gerr := decodeTimeless(t, "lease "+it.Label(), out.Snapshot)
					if werr != nil || gerr != nil {
						// Same complaint; the byte offset moves with the width of a wall time.
						cause := func(err error) string {
							if err == nil {
								return ""
							}
							msg, _, _ := strings.Cut(err.Error(), " (offset")
							return msg
						}
						if cause(werr) != cause(gerr) {
							t.Fatalf("item %s: the file decodes with %v, the shipped snapshot with %v", it.Label(), werr, gerr)
						}
						continue
					}
					if !out.Suspended {
						reps += len(got.Merged)
					}
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
				if merge && algo != sde.COB && reps == 0 {
					t.Error("no shipped leaf holds a merged representative: the snapshot was taken after the report dissolved them")
				}
			})
		}
	}
}
