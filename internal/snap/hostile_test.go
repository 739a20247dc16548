package snap_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/metrics"
	"sde/internal/sim"
	"sde/internal/snap"
	"sde/internal/vm"
)

// hostileSnapshots are checksum-valid snapshots of a finished 3×3 SDS
// collect that lie: NextStateID is 2^40, or a state's image is in no
// dstate (an orphan). Nothing may be sized by the counter — state ids go
// sparse once a frontier is sliced — so a resume either proceeds or
// refuses with an error, and allocates what an honest snapshot's would.
func hostileSnapshots(tb testing.TB) (cfg sim.Config, honest []byte, hostile map[string][]byte) {
	tb.Helper()
	eng, cfg := collectFrontier(tb, core.SDSAlgorithm, 3, 2)
	sp, err := eng.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	if honest, err = sp.Encode(eng.Ctx().Exprs); err != nil {
		tb.Fatal(err)
	}
	hostile = make(map[string][]byte)
	for name, lie := range map[string]func(*snap.Snapshot){
		"NextStateID": func(sp *snap.Snapshot) { sp.NextStateID = 1 << 40 },
		"orphan": func(sp *snap.Snapshot) {
			img := sp.States[len(sp.States)-1]
			sp.NextStateID++
			img.ID = sp.NextStateID
			sp.States = append(sp.States, img)
		},
	} {
		b := expr.NewBuilder()
		sp, err := snap.Decode(honest, b)
		if err != nil {
			tb.Fatal(err)
		}
		lie(sp)
		if hostile[name], err = sp.Encode(b); err != nil {
			tb.Fatal(err)
		}
	}
	return cfg, honest, hostile
}

// resumeAlloc resumes data and returns the bytes allocated doing so.
func resumeAlloc(t *testing.T, cfg sim.Config, data []byte) (uint64, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng, err := sim.ResumeEngine(cfg, data)
	runtime.ReadMemStats(&after)
	if err == nil {
		if _, rerr := eng.Run(); rerr != nil {
			t.Fatalf("resumed engine: %v", rerr)
		}
	}
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestHostileCountsStayCheap: a snapshot whose NextStateID is 2^40, or
// that holds an orphan, resumes or is refused with an error, and allocates
// no more than an honest resume does plus a few times its own length.
func TestHostileCountsStayCheap(t *testing.T) {
	cfg, honest, hostile := hostileSnapshots(t)
	base, err := resumeAlloc(t, cfg, honest)
	if err != nil {
		t.Fatalf("honest snapshot: %v", err)
	}
	for name, data := range hostile {
		alloc, err := resumeAlloc(t, cfg, data)
		t.Logf("%s: %d bytes, honest %d, snapshot %d bytes: %v", name, alloc, base, len(data), err)
		if alloc > base+4*uint64(len(data)) {
			t.Errorf("%s: resume allocated %d bytes, an honest one %d, the snapshot is %d bytes",
				name, alloc, base, len(data))
		}
	}
}

// hostilePeak is a checksum-valid snapshot whose PeakStates field reads
// 2^63: encoded from an int of math.MinInt, which the header writes as
// the uvarint 1<<63.
func hostilePeak(tb testing.TB) []byte {
	tb.Helper()
	sp, b := liveSnapshot(tb, core.SDSAlgorithm, 40)
	sp.PeakStates = math.MinInt
	data, err := sp.Encode(b)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestHostilePeakStatesRefused: a PeakStates past the largest int is
// refused as corrupt rather than restored as a negative peak.
func TestHostilePeakStatesRefused(t *testing.T) {
	sp, err := snap.Decode(hostilePeak(t), expr.NewBuilder())
	if err == nil {
		t.Fatalf("Decode accepted PeakStates = 2^63 as %d", sp.PeakStates)
	}
	if !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
}

// TestRefusedResumeLeavesNoWorker: a resume that refuses its snapshot —
// corrupt bytes, or a state in no dstate — leaves no goroutine of the
// engine it built behind.
func TestRefusedResumeLeavesNoWorker(t *testing.T) {
	cfg, honest, hostile := hostileSnapshots(t)
	before := runtime.NumGoroutine()
	for _, data := range [][]byte{honest[:len(honest)/2], hostile["orphan"]} {
		if _, err := sim.ResumeEngine(cfg, data); err == nil {
			t.Fatal("resume accepted a snapshot it must refuse")
		}
	}
	// Give a goroutine that is stopping the moment it takes to return.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after two refused resumes, %d before", n, before)
	}
}

// hostileCount is a checksum-valid snapshot of 1 MiB and a little more
// that claims n elements of one list, the pages or the states: a live SDS
// frontier's header and expressions (and pages, when the lie is the state
// count), then the count, then zeros.
func hostileCount(tb testing.TB, list string, n uint64) []byte {
	tb.Helper()
	sp, b := liveSnapshot(tb, core.SDSAlgorithm, 40)
	sp.States = nil
	if list == "pages" {
		sp.Pages = nil
	}
	none, err := sp.Encode(b)
	if err != nil {
		tb.Fatal(err)
	}
	// One element more, which references no new expression and, for a
	// state, no page: the two encodings differ first at the count.
	if list == "pages" {
		var page [vm.PageWords]uint32
		page[0] = b.Vars()[0].ID()
		sp.Pages = [][vm.PageWords]uint32{page}
	} else {
		sp.States = make([]vm.StateImage, 1)
	}
	one, err := sp.Encode(b)
	if err != nil {
		tb.Fatal(err)
	}
	at := 0
	for none[at] == one[at] {
		at++
	}
	data := binary.AppendUvarint(bytes.Clone(none[:at]), n)
	data = append(data, make([]byte, 1<<20)...)
	return binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)))
}

// TestHostileCountsRefused: a count the bytes left cannot hold, at the
// smallest encoding of its element, is refused before anything is made
// that long, so Decode allocates a small multiple of the snapshot's length
// at most.
func TestHostileCountsRefused(t *testing.T) {
	for _, list := range []string{"pages", "states"} {
		data := hostileCount(t, list, 1<<20)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := snap.Decode(data, expr.NewBuilder())
		runtime.ReadMemStats(&after)
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("Decode of 2^20 %s in %d bytes: %v, want ErrCorrupt", list, len(data), err)
		}
		t.Logf("%s: %v", list, err)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*uint64(len(data)) {
			t.Errorf("Decode allocated %d bytes refusing a %d-byte snapshot of 2^20 %s", alloc, len(data), list)
		}
	}
}

// TestEmptyPageRefused: a page is made by a store, so one without a set
// word is refused both ways — the encoder's error, the decoder's corrupt.
func TestEmptyPageRefused(t *testing.T) {
	sp, b := liveSnapshot(t, core.COBAlgorithm, 3)
	sp.Pages = append(sp.Pages, [vm.PageWords]uint32{})
	if _, err := sp.Encode(b); err == nil {
		t.Error("Encode accepted a page with no set word")
	}
	_, err := snap.Decode(hostileCount(t, "pages", 1), expr.NewBuilder())
	if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), "page with 0 set words") {
		t.Errorf("Decode of a page with no set word: %v", err)
	}
}

// repeat returns n copies of v.
func repeat[T any](n int, v T) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestSmallestElementsDecode: a list of elements each at its smallest
// encoding decodes, for every list of the format, so no bound on a count
// refuses an honest snapshot. Each list is long and comes last but for a
// few bytes, so a bound that took one byte more per element would refuse it.
func TestSmallestElementsDecode(t *testing.T) {
	const n = 1000
	b := expr.NewBuilder()
	x := b.Var("x", 1)
	model := make(expr.Env, n)
	for i := range n {
		model[fmt.Sprint(i)] = 0
	}
	var one, full [vm.PageWords]uint32
	for i := range full {
		full[i] = x.ID()
	}
	one[vm.PageWords-1] = x.ID()
	state := func(img vm.StateImage) func(*snap.Snapshot) {
		return func(sp *snap.Snapshot) { sp.States = []vm.StateImage{img} }
	}
	mapper := func(m core.MapperSnapshot) func(*snap.Snapshot) {
		return func(sp *snap.Snapshot) { m.K = sp.K; sp.Algorithm, sp.Mapper = m.Algorithm, &m }
	}
	for name, fill := range map[string]func(*snap.Snapshot){
		"pages":          func(sp *snap.Snapshot) { sp.Pages = repeat(n, one) },
		"page words":     func(sp *snap.Snapshot) { sp.Pages = [][vm.PageWords]uint32{full} },
		"states":         func(sp *snap.Snapshot) { sp.States = make([]vm.StateImage, n) },
		"frames":         state(vm.StateImage{Frames: make([]vm.FrameImage, n)}),
		"path condition": state(vm.StateImage{PathCond: repeat(n, x)}),
		"events":         state(vm.StateImage{Events: make([]vm.EventImage, n)}),
		"event data":     state(vm.StateImage{Events: []vm.EventImage{{Data: repeat(n, x)}}}),
		"history":        state(vm.StateImage{Hist: repeat(n, vm.HistEntry{Dir: vm.DirSent})}),
		"trace":          state(vm.StateImage{Trace: make([]vm.TraceEntry, n)}),
		"page references": func(sp *snap.Snapshot) {
			sp.Pages = [][vm.PageWords]uint32{one}
			state(vm.StateImage{Pages: make([]vm.PageRef, n)})(sp)
		},
		"samples":       func(sp *snap.Snapshot) { sp.Samples = make([]metrics.Sample, n) },
		"violations":    func(sp *snap.Snapshot) { sp.Violations = repeat(n, &vm.Violation{}) },
		"model":         func(sp *snap.Snapshot) { sp.Violations = []*vm.Violation{{Model: model}} },
		"dstates":       mapper(core.MapperSnapshot{Algorithm: core.COWAlgorithm, DStates: repeat(n, make([][]uint64, 3))}),
		"state ids":     mapper(core.MapperSnapshot{Algorithm: core.COWAlgorithm, DStates: [][][]uint64{{make([]uint64, n), nil, nil}}}),
		"supers":        mapper(core.MapperSnapshot{Algorithm: core.SDSAlgorithm, Supers: make([]core.SuperImage, n)}),
		"super dstates": mapper(core.MapperSnapshot{Algorithm: core.SDSAlgorithm, Supers: []core.SuperImage{{DStateIDs: make([]int, n)}}}),
	} {
		sp := &snap.Snapshot{Algorithm: core.COBAlgorithm, K: 3, Topology: "line:3",
			Mapper: &core.MapperSnapshot{Algorithm: core.COBAlgorithm, K: 3}}
		fill(sp)
		data, err := sp.Encode(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := snap.Decode(data, expr.NewBuilder()); err != nil {
			t.Errorf("%s: %d elements at their smallest encoding refused: %v", name, n, err)
		}
	}
}
