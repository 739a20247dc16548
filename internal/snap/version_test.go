package snap_test

// Format-version tests. There is one version: the reader accepts exactly
// the version this build writes, and a blob claiming any other — older or
// from the future — is rejected as corrupt with an error naming both, not
// a panic and not a silent misparse.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"strings"
	"testing"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/rime"
	"sde/internal/sim"
	"sde/internal/snap"
)

// mergedSnapshot steps a merge-enabled collect run until the live
// frontier holds at least one merged representative, then snapshots it.
func mergedSnapshot(t *testing.T) (*snap.Snapshot, *expr.Builder) {
	t.Helper()
	prog, err := rime.CollectProgram()
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewGrid(3, 3)
	route := g.StaircaseRoute(8, 0)
	cc := rime.CollectConfig{
		Source: route[0], Sink: route[len(route)-1],
		Route: route, Interval: 10, Packets: 2,
	}
	nodeInit, err := cc.NodeInit(g.K())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(sim.Config{
		Topo:      g,
		Prog:      prog,
		Algorithm: core.SDSAlgorithm,
		Horizon:   120,
		NodeInit:  nodeInit,
		Failures:  sim.FailurePlan{DropFirst: sim.NodeSet(route)},
		Layers:    sim.Layers{Merge: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for eng.Step() {
		sp, err := eng.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		if len(sp.Merged) > 0 {
			return sp, eng.Ctx().Exprs
		}
	}
	t.Fatal("run never held a merged representative; workload no longer merges")
	return nil, nil
}

// reversion rewrites the format-version byte of an encoded snapshot and
// repairs the trailing FNV-1a checksum, simulating a blob whose declared
// version disagrees with its actual contents.
func reversion(t *testing.T, data []byte, ver byte) []byte {
	t.Helper()
	const magicLen = 7 // "SDEsnp\x00"
	out := append([]byte(nil), data...)
	out[magicLen] = ver
	h := fnv.New64a()
	h.Write(out[:len(out)-8])
	binary.LittleEndian.PutUint64(out[len(out)-8:], h.Sum64())
	return out
}

// TestMergedSnapshotRoundTrip: a snapshot holding merged representatives
// round-trips byte-stably, representatives and members included.
func TestMergedSnapshotRoundTrip(t *testing.T) {
	sp, b := mergedSnapshot(t)
	data, err := sp.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	b2 := expr.NewBuilder()
	sp2, err := snap.Decode(data, b2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp2.Merged) != len(sp.Merged) {
		t.Fatalf("decoded %d merged reps, want %d", len(sp2.Merged), len(sp.Merged))
	}
	for i := range sp2.Merged {
		if len(sp2.Merged[i].Members) != len(sp.Merged[i].Members) {
			t.Fatalf("rep %d: %d members, want %d",
				i, len(sp2.Merged[i].Members), len(sp.Merged[i].Members))
		}
	}
	data2, err := sp2.Encode(b2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("merged snapshot encode→decode→encode not byte-stable")
	}
}

// TestVersionGate: the reader's version check, as a table over
// version-byte rewrites of a real blob.
func TestVersionGate(t *testing.T) {
	sp, b := liveSnapshot(t, core.SDSAlgorithm, 60)
	cur, err := sp.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		data   []byte
		reject bool
	}{
		{"current-version", cur, false},
		{"previous-version", reversion(t, cur, snap.WireVersion-1), true},
		{"version-5", reversion(t, cur, 5), true}, // the last format without a stats section: counters in the header and the samples
		{"version-6", reversion(t, cur, 6), true}, // its stats section carried three solver-session counters more
		{"version-7", reversion(t, cur, 7), true}, // same snapshot bytes, but its worker protocol still had NoWork
		{"future-version", reversion(t, cur, snap.WireVersion+1), true},
		{"version-zero", reversion(t, cur, 0), true},
		{"version-255", reversion(t, cur, 255), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := snap.Decode(tc.data, expr.NewBuilder())
			if !tc.reject {
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Decode accepted a blob of another version")
			}
			if !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			if !strings.Contains(err.Error(), "this reader speaks") {
				t.Fatalf("error %q does not name the version this reader speaks", err)
			}
		})
	}
}
