package snap_test

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/sim"
	"sde/internal/snap"
)

// hostileSnapshots are checksum-valid snapshots of a finished 3×3 SDS
// collect whose counters lie: NextStateID or NextDSID is 2^40. Nothing may
// be sized by either — state ids go sparse once a frontier is sliced, and
// the dstate table is only as long as the dstates read — so a resume
// either proceeds or refuses with an error, and allocates what an honest
// snapshot's would.
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
		"NextDSID":    func(sp *snap.Snapshot) { sp.Mapper.NextDSID = 1 << 40 },
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

// TestHostileCountsStayCheap: a snapshot whose NextStateID or NextDSID is
// 2^40 resumes or is refused with an error, and allocates no more than an
// honest resume does plus a few times its own length.
func TestHostileCountsStayCheap(t *testing.T) {
	cfg, honest, hostile := hostileSnapshots(t)
	base, err := resumeAlloc(t, cfg, honest)
	if err != nil {
		t.Fatalf("honest snapshot: %v", err)
	}
	for name, data := range hostile {
		alloc, err := resumeAlloc(t, cfg, data)
		t.Logf("%s = 2^40: %d bytes, honest %d, snapshot %d bytes: %v", name, alloc, base, len(data), err)
		if alloc > base+4*uint64(len(data)) {
			t.Errorf("%s = 2^40: resume allocated %d bytes, an honest one %d, the snapshot is %d bytes",
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
// corrupt bytes, or a NextDSID that lies — stops the solver workers its
// engine started before it read the snapshot.
func TestRefusedResumeLeavesNoWorker(t *testing.T) {
	cfg, honest, hostile := hostileSnapshots(t)
	before := runtime.NumGoroutine()
	for _, data := range [][]byte{honest[:len(honest)/2], hostile["NextDSID"]} {
		if _, err := sim.ResumeEngine(cfg, data); err == nil {
			t.Fatal("resume accepted a snapshot it must refuse")
		}
	}
	// A stopped worker has signalled its pool; give it the moment it takes
	// to return.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after two refused resumes, %d before", n, before)
	}
}
