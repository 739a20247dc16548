package snap_test

// The tests live in an external package so they can build real snapshots
// through sde/internal/sim (which itself imports snap).

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/metrics"
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

// TestConcurrentEncodes: Encode recycles its scratch buffer and expression
// table through a pool, so goroutines encoding the three algorithms'
// frontiers at once must each get the bytes a serial encode gives, and keep
// them once the next encode has taken the buffer.
func TestConcurrentEncodes(t *testing.T) {
	type frontier struct {
		sp   *snap.Snapshot
		b    *expr.Builder
		want []byte
	}
	var fs []frontier
	for _, algo := range allAlgorithms {
		sp, b := liveSnapshot(t, algo, 60)
		want, err := sp.Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, frontier{sp, b, bytes.Clone(want)})
	}
	const workers, rounds = 4, 6
	got := make([][]byte, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				f := fs[(w+r)%len(fs)]
				data, err := f.sp.Encode(f.b)
				if err != nil {
					t.Error(err)
					return
				}
				got[w*rounds+r] = data
			}
		}(w)
	}
	wg.Wait()
	for i, data := range got {
		w, r := i/rounds, i%rounds
		if f := fs[(w+r)%len(fs)]; !bytes.Equal(data, f.want) {
			t.Errorf("goroutine %d, encode %d (%v): %d bytes differ from the serial %d",
				w, r, f.sp.Algorithm, len(data), len(f.want))
		}
	}
}

// TestStatsSectionCarriesEveryCounter is the guard for the stats section:
// every counter declared on any part of metrics.RunStats — each given a
// distinct non-zero value here — survives encode → decode, so a counter
// added without being serialised fails (the section is a walk over the
// type, so it cannot be; this pins that).
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
	data, err := sp.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := snap.Decode(data, expr.NewBuilder())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != sp.Stats {
		t.Errorf("stats section did not round-trip:\n got %#v\nwant %#v", got.Stats, sp.Stats)
	}
}

// withStats returns data, a snapshot whose stats are all zero, with its
// stats section replaced by js and its checksum repaired.
func withStats(t *testing.T, data []byte, js string) []byte {
	t.Helper()
	zero, err := json.Marshal(metrics.RunStats{})
	if err != nil {
		t.Fatal(err)
	}
	section := binary.AppendUvarint(nil, uint64(len(zero)))
	section = append(section, zero...)
	at := bytes.Index(data, section)
	if at < 0 {
		t.Fatal("no zero stats section in the snapshot")
	}
	out := append(binary.AppendUvarint(bytes.Clone(data[:at]), uint64(len(js))), js...)
	out = append(out, data[at+len(section):len(data)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli)))
}

// TestStatsSectionDecode: the stats section is the JSON object of the
// counters by name. A counter it leaves out reads as zero; an unknown one
// is refused by name, as are a value out of its counter's range and
// anything after the object.
func TestStatsSectionDecode(t *testing.T) {
	sp, b := liveSnapshot(t, core.COWAlgorithm, 20)
	sp.Stats = metrics.RunStats{}
	data, err := sp.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		js   string
		want metrics.RunStats
		err  string // a part of the refusal; "" when the section is read
	}{
		{js: `{}`},
		{js: `{"vm":{"instructions":5}}`, want: metrics.RunStats{VM: metrics.VMStats{Instructions: 5}}},
		{js: `{"solver":{"queries":2,"gates":3},"checkpoint":{"wall_ns":4}}`,
			want: metrics.RunStats{Solver: metrics.SolverStats{Queries: 2, Gates: 3}, Checkpoint: metrics.CheckpointStats{Wall: 4}}},
		{js: `{"vm":{"instructions":5,"bogus_counter":1}}`, err: `"bogus_counter"`},
		{js: `{"bogus_layer":{}}`, err: `"bogus_layer"`},
		{js: `{"vm":{}} `, err: "1 bytes after the counters"},
		{js: `{"vm":{}}{}`, err: "2 bytes after the counters"},
		{js: `{"vm":{"instructions":-1}}`, err: "instructions"},
		{js: `{"solver":{"queries":9223372036854775808}}`, err: "queries"},
		{js: `{"checkpoint":{"written":1.5}}`, err: "written"},
		{js: `{"vm":{"forks":1}`, err: "stats"},
		{js: `[]`, err: "stats"},
	} {
		got, err := snap.Decode(withStats(t, data, tc.js), expr.NewBuilder())
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.js, err)
		case tc.err == "" && got.Stats != tc.want:
			t.Errorf("%s: decoded %+v, want %+v", tc.js, got.Stats, tc.want)
		case tc.err != "" && !errors.Is(err, snap.ErrCorrupt):
			t.Errorf("%s: %v, want ErrCorrupt", tc.js, err)
		case tc.err != "" && !strings.Contains(err.Error(), tc.err):
			t.Errorf("%s: refusal %q does not name %s", tc.js, err, tc.err)
		}
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

// TestEncodeSizedOnce: Encode appends into a pooled scratch buffer and
// returns one copy of exactly the encoded length, so a checkpoint held in
// memory (a lease's frontier, the last snapshot) pins no spare capacity.
func TestEncodeSizedOnce(t *testing.T) {
	for _, algo := range []core.Algorithm{core.COBAlgorithm, core.COWAlgorithm, core.SDSAlgorithm} {
		for _, steps := range []int{0, 40, 1 << 20} {
			sp, b := liveSnapshot(t, algo, steps)
			data, err := sp.Encode(b)
			if err != nil {
				t.Fatal(err)
			}
			if cap(data) != len(data) {
				t.Errorf("%v after %d steps: %d bytes with capacity %d", algo, steps, len(data), cap(data))
			}
		}
	}
}

// TestEncodeAfterCollection: an encode whose pooled scratch the collector
// took starts its buffer at the previous encode's length, so beside the
// bytes it returns it allocates a quarter more than their length at most,
// not the doubling series a buffer grown from empty costs (2.1× for this
// frontier).
func TestEncodeAfterCollection(t *testing.T) {
	eng, _ := collectFrontier(t, core.COBAlgorithm, 4, 3)
	sp, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := eng.Ctx().Exprs
	first, err := sp.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	for range 3 {
		runtime.GC()
	}
	runtime.ReadMemStats(&before)
	data, err := sp.Encode(b)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, first) {
		t.Fatal("the second encode differs from the first")
	}
	scratch := after.TotalAlloc - before.TotalAlloc - uint64(len(data))
	t.Logf("%d bytes; %d allocated beside them", len(data), scratch)
	if scratch > uint64(len(data))*5/4 {
		t.Errorf("an encode after three collections allocated %d bytes beside its %d", scratch, len(data))
	}
}
