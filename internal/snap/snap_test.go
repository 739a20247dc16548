package snap_test

// The tests live in an external package so they can build real snapshots
// through sde/internal/sim (which itself imports snap).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/rime"
	"sde/internal/sim"
	"sde/internal/snap"
)

var allAlgorithms = []core.Algorithm{core.COBAlgorithm, core.COWAlgorithm, core.SDSAlgorithm}

// liveSnapshot runs the collect scenario partway and snapshots a frontier
// with forked states, symbolic path conditions, pending events, and
// shared memory pages.
func liveSnapshot(t testing.TB, algo core.Algorithm, steps int) (*snap.Snapshot, *expr.Builder) {
	t.Helper()
	prog, err := rime.CollectProgram()
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewGrid(3, 3)
	route := g.StaircaseRoute(8, 0)
	cc := rime.CollectConfig{
		Source:   route[0],
		Sink:     route[len(route)-1],
		Route:    route,
		Interval: 10,
		Packets:  2,
	}
	nodeInit, err := cc.NodeInit(g.K())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(sim.Config{
		Topo:      g,
		Prog:      prog,
		Algorithm: algo,
		Horizon:   120,
		NodeInit:  nodeInit,
		Failures:  sim.FailurePlan{DropFirst: sim.NodeSet(route)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps && eng.Step(); i++ {
	}
	sp, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return sp, eng.Ctx().Exprs
}

// TestRoundTripByteStable is the format's core guarantee: an encoded
// snapshot, decoded into a fresh builder and re-encoded, is byte-identical
// — for every algorithm, at an early (pre-fork) and a late frontier.
func TestRoundTripByteStable(t *testing.T) {
	for _, algo := range allAlgorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			for _, steps := range []int{3, 60} {
				sp, b := liveSnapshot(t, algo, steps)
				data, err := sp.Encode(b)
				if err != nil {
					t.Fatalf("Encode: %v", err)
				}
				b2 := expr.NewBuilder()
				sp2, err := snap.Decode(data, b2)
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				data2, err := sp2.Encode(b2)
				if err != nil {
					t.Fatalf("re-Encode: %v", err)
				}
				if !bytes.Equal(data, data2) {
					t.Fatalf("steps=%d: encode→decode→encode changed %d-byte snapshot", steps, len(data))
				}
				if sp2.Events != sp.Events || sp2.Clock != sp.Clock ||
					len(sp2.States) != len(sp.States) || len(sp2.Pages) != len(sp.Pages) {
					t.Fatalf("steps=%d: decoded header diverges: %+v", steps, sp2)
				}
			}
		})
	}
}

// TestStatsSectionCarriesEveryCounter is the guard for the stats section:
// every counter declared on any part of metrics.RunStats — each given a
// distinct non-zero value here — survives encode → decode, so a counter
// added without being serialised fails (the section is a walk over the
// type, so it cannot be; this pins that), and the encode is still sized
// exactly once with the section full.
func TestStatsSectionCarriesEveryCounter(t *testing.T) {
	sp, b := liveSnapshot(t, core.SDSAlgorithm, 40)
	n := int64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch {
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case v.CanInt():
			n++
			v.SetInt(n << 20) // several varint bytes each
		default:
			n++
			v.SetUint(uint64(n << 20))
		}
	}
	fill(reflect.ValueOf(&sp.Stats).Elem())
	if n < 37 {
		t.Fatalf("filled %d counters; RunStats has more than that", n)
	}
	hint, err := sp.SizeHint(b)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sp.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if cap(data) != hint {
		t.Errorf("%d bytes outgrew the hint %d with a full stats section", len(data), hint)
	}
	got, err := snap.Decode(data, expr.NewBuilder())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != sp.Stats {
		t.Errorf("stats section did not round-trip:\n got %#v\nwant %#v", got.Stats, sp.Stats)
	}
}

// TestDecodeTruncated: every prefix of a valid snapshot must fail with
// ErrCorrupt, never panic.
func TestDecodeTruncated(t *testing.T) {
	sp, b := liveSnapshot(t, core.SDSAlgorithm, 40)
	data, err := sp.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	step := len(data)/200 + 1
	for n := 0; n < len(data); n += step {
		_, err := snap.Decode(data[:n], expr.NewBuilder())
		if err == nil {
			t.Fatalf("Decode accepted a %d-byte prefix of a %d-byte snapshot", n, len(data))
		}
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("prefix %d: error %v does not wrap ErrCorrupt", n, err)
		}
	}
}

// TestDecodeBitFlips: flipping any single byte must be rejected (the
// checksum guarantees this) with ErrCorrupt.
func TestDecodeBitFlips(t *testing.T) {
	sp, b := liveSnapshot(t, core.COWAlgorithm, 40)
	data, err := sp.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	step := len(data)/100 + 1
	for pos := 0; pos < len(data); pos += step {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x41
		_, err := snap.Decode(mut, expr.NewBuilder())
		if err == nil {
			t.Fatalf("Decode accepted a snapshot with byte %d flipped", pos)
		}
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("flip at %d: error %v does not wrap ErrCorrupt", pos, err)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "ckpt")
	sp, b := liveSnapshot(t, core.SDSAlgorithm, 20)

	if _, err := snap.LoadBytes(dir); !errors.Is(err, snap.ErrNoCheckpoint) {
		t.Fatalf("LoadBytes on empty dir: %v, want ErrNoCheckpoint", err)
	}
	want, err := sp.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Save(dir, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	size := len(want)
	if err := snap.AppendJournal(dir, sp, size, 1500*time.Microsecond); err != nil {
		t.Fatalf("AppendJournal: %v", err)
	}
	got, err := snap.LoadBytes(dir)
	if err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("LoadBytes returned different bytes than Encode")
	}
	sp2, err := snap.Load(dir, expr.NewBuilder())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if sp2.Events != sp.Events {
		t.Fatalf("Load events = %d, want %d", sp2.Events, sp.Events)
	}
	if _, err := os.Stat(filepath.Join(dir, snap.CheckpointFile+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temp file left behind after Save")
	}

	// A second checkpoint overwrites the snapshot and appends a journal line.
	if err := snap.Save(dir, want); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	if err := snap.AppendJournal(dir, sp, size, 1500*time.Microsecond); err != nil {
		t.Fatalf("second AppendJournal: %v", err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, snap.JournalFile))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(journal)), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines after two saves:\n%s", len(lines), journal)
	}
	for _, line := range lines {
		if !strings.Contains(line, "algo=SDS") || !strings.Contains(line, "events=") ||
			!strings.HasSuffix(line, fmt.Sprintf("bytes=%d cost=1.5ms", size)) {
			t.Fatalf("malformed journal line: %q", line)
		}
	}
}

// TestEncodeWithoutMapper: programming-error path, not a corrupt-input one.
func TestEncodeWithoutMapper(t *testing.T) {
	sp, b := liveSnapshot(t, core.COBAlgorithm, 5)
	sp.Mapper = nil
	if _, err := sp.Encode(b); err == nil {
		t.Fatal("Encode accepted a snapshot without a mapper")
	}
}

// TestEncodeSizedOnce: Encode sizes its buffer from the snapshot, so the
// bytes it returns still sit in the allocation it started with (capacity
// equal to the hint) and the hint is not wastefully above them.
func TestEncodeSizedOnce(t *testing.T) {
	for _, algo := range []core.Algorithm{core.COBAlgorithm, core.COWAlgorithm, core.SDSAlgorithm} {
		for _, steps := range []int{0, 40, 1 << 20} {
			sp, b := liveSnapshot(t, algo, steps)
			hint, err := sp.SizeHint(b)
			if err != nil {
				t.Fatal(err)
			}
			data, err := sp.Encode(b)
			if err != nil {
				t.Fatal(err)
			}
			if cap(data) != hint {
				t.Errorf("%v after %d steps: %d bytes outgrew the hint %d (capacity now %d)",
					algo, steps, len(data), hint, cap(data))
			}
			if hint > 2*len(data) {
				t.Errorf("%v after %d steps: hint %d for %d bytes", algo, steps, hint, len(data))
			}
			t.Logf("%v after %d steps: %d bytes, hint %d", algo, steps, len(data), hint)
		}
	}
}
