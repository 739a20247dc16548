package sim_test

// Fuzz target for the checkpoint restore: a checkpoint is untrusted bytes,
// and resuming one must never panic. The fuzzed input is a snapshot body
// without its checksum; the target appends the CRC-32C, so a mutation gets
// past the checksum and reaches vm.RestoreStates and core.RestoreMapper —
// where snap's FuzzDecode stops.

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/rime"
	"sde/internal/sim"
	"sde/internal/snap"
)

var restoreAlgorithms = []core.Algorithm{core.COBAlgorithm, core.COWAlgorithm, core.SDSAlgorithm}

// restoreConfig is a 2x3 gridcollect with symbolic drops on its route:
// small enough that a resume takes microseconds, forking enough that
// every mapper holds several groups.
func restoreConfig(tb testing.TB, algo core.Algorithm) sim.Config {
	tb.Helper()
	prog, err := rime.CollectProgram()
	if err != nil {
		tb.Fatal(err)
	}
	g := sim.NewGrid(2, 3)
	route := g.StaircaseRoute(5, 0)
	cc := rime.CollectConfig{
		Source:   route[0],
		Sink:     route[len(route)-1],
		Route:    route,
		Interval: 10,
		Packets:  2,
	}
	nodeInit, err := cc.NodeInit(g.K())
	if err != nil {
		tb.Fatal(err)
	}
	return sim.Config{
		Topo:      g,
		Prog:      prog,
		Algorithm: algo,
		Horizon:   120,
		NodeInit:  nodeInit,
		Failures:  sim.FailurePlan{DropFirst: sim.NodeSet(route)},
	}
}

// checkpointBody runs cfg to the event budget and returns its frontier's
// snapshot without the trailing checksum.
func checkpointBody(tb testing.TB, cfg sim.Config, budget uint64) []byte {
	tb.Helper()
	cfg.EventBudget = budget
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		tb.Fatal(err)
	}
	sp, err := eng.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	data, err := sp.Encode(eng.Ctx().Exprs)
	if err != nil {
		tb.Fatal(err)
	}
	return data[:len(data)-4]
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// withSum returns body followed by its CRC-32C, as Encode ends a snapshot.
func withSum(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, castagnoli))
}

// rewrite decodes a snapshot body, lets edit change the snapshot and
// returns the body it encodes to.
func rewrite(tb testing.TB, body []byte, edit func(sp *snap.Snapshot)) []byte {
	tb.Helper()
	b := expr.NewBuilder()
	sp, err := snap.Decode(withSum(body), b)
	if err != nil {
		tb.Fatal(err)
	}
	edit(sp)
	data, err := sp.Encode(b)
	if err != nil {
		tb.Fatal(err)
	}
	return data[:len(data)-4]
}

// orphan takes out of every bucket it is in one state whose buckets all
// hold another, and empties its super-dstate (SDS), so its image stays in
// the snapshot while no dstate holds it.
func orphan(tb testing.TB, m *core.MapperSnapshot) {
	tb.Helper()
	alone := make(map[uint64]bool) // the states that are the only one of a bucket
	for _, d := range m.DStates {
		for _, bucket := range d {
			if len(bucket) == 1 {
				alone[bucket[0]] = true
			}
		}
	}
	for _, d := range m.DStates {
		for _, bucket := range d {
			for _, id := range bucket {
				if alone[id] {
					continue
				}
				for _, d := range m.DStates {
					for node, bucket := range d {
						d[node] = slices.DeleteFunc(bucket, func(x uint64) bool { return x == id })
					}
				}
				for j := range m.Supers {
					if m.Supers[j].StateID == id {
						m.Supers[j].DStateIDs = nil
					}
				}
				return
			}
		}
	}
	tb.Fatal("every state is the only one of some bucket")
}

// alterHistory changes the history of a state, as a checkpoint whose state
// images were edited after the snapshot would: one that shares a bucket
// with another state, so the bucket conflicts, where there is one (COB's
// buckets hold one state).
func alterHistory(tb testing.TB, sp *snap.Snapshot) {
	tb.Helper()
	shared := make(map[uint64]bool)
	for _, d := range sp.Mapper.DStates {
		for _, bucket := range d {
			for _, id := range bucket {
				shared[id] = len(bucket) > 1
			}
		}
	}
	for i := range sp.States {
		img := &sp.States[i]
		if len(img.Hist) > 0 && (shared[img.ID] || sp.Algorithm == core.COBAlgorithm) {
			img.Hist[len(img.Hist)-1].Payload ^= 1
			return
		}
	}
	tb.Fatal("no state to alter has a history")
}

// FuzzRestore seeds, per algorithm, honest frontiers at two depths, a bit
// flip of each, and the deeper one with a state's history altered after the
// snapshot. The seeds are built here, not stored, so a format version bump
// leaves them valid. The two inputs stored in testdata/fuzz/FuzzRestore are
// format-12 checkpoints of the same altered-history cases; they stay as
// inputs a current decoder must refuse by version. A resume either fails or
// holds every state it restored in its mapper, with the mapper's invariants
// intact.
func FuzzRestore(f *testing.F) {
	cfgs := make([]sim.Config, len(restoreAlgorithms))
	for i, algo := range restoreAlgorithms {
		cfgs[i] = restoreConfig(f, algo)
		var body []byte
		for _, budget := range []uint64{12, 30} {
			body = checkpointBody(f, cfgs[i], budget)
			eng, err := sim.ResumeEngine(cfgs[i], withSum(body))
			if err != nil {
				f.Fatalf("%v seed at %d events does not resume: %v", algo, budget, err)
			}
			if eng.Mapper().NumGroups() < 2 {
				f.Fatalf("%v seed at %d events holds %d groups, want several", algo, budget, eng.Mapper().NumGroups())
			}
			f.Add(body, uint8(i))
			mut := append([]byte(nil), body...)
			mut[len(mut)/2] ^= 0x01
			f.Add(mut, uint8(i))
		}
		f.Add(rewrite(f, body, func(sp *snap.Snapshot) { alterHistory(f, sp) }), uint8(i))
	}

	f.Fuzz(func(t *testing.T, body []byte, pick uint8) {
		cfg := cfgs[int(pick)%len(cfgs)]
		data := withSum(body)
		check := func(what string, eng *sim.Engine) {
			if err := eng.Mapper().CheckInvariants(); err != nil {
				t.Fatalf("%s resumed into a broken mapper: %v", what, err)
			}
			if n, want := eng.Mapper().NumStates(), eng.NumStates(); n != want {
				t.Fatalf("%s resumed %d states, its mapper holds %d", what, want, n)
			}
		}
		eng, err := sim.ResumeEngine(cfg, data)
		if err != nil {
			return
		}
		check(cfg.Algorithm.String()+" checkpoint", eng)
		if cfg.Algorithm != core.COBAlgorithm {
			return
		}
		// A COB frontier is sliceable: a slice restores a subset of its rows.
		for seg := 0; seg < 2; seg++ {
			if eng, err := sim.ResumeEngineSlice(cfg, data, seg, 2); err == nil {
				check("a slice of a COB checkpoint", eng)
			}
		}
	})
}

// TestResumeRefusesHeaderRewrite: a COB checkpoint whose header's
// algorithm byte is rewritten to SDS, with the checksum repaired, is
// refused: the algorithm is written once, and the COB image is no SDS
// mapper.
func TestResumeRefusesHeaderRewrite(t *testing.T) {
	body := checkpointBody(t, restoreConfig(t, core.COBAlgorithm), 30)
	const at = 8 // after the magic and the version byte
	if body[at] != byte(core.COBAlgorithm) {
		t.Fatalf("header byte %d is %d, not the COB algorithm", at, body[at])
	}
	body[at] = byte(core.SDSAlgorithm)
	if eng, err := sim.ResumeEngine(restoreConfig(t, core.SDSAlgorithm), withSum(body)); err == nil {
		t.Fatalf("a COB checkpoint relabelled SDS resumed into a %v mapper", eng.Mapper().Algorithm())
	}
}

// TestResumeRefusesOrphan: a checkpoint one of whose states is in no
// dstate is refused, rather than resumed into a run that executes the
// state and leaves it out of every dscenario.
func TestResumeRefusesOrphan(t *testing.T) {
	for _, c := range []struct {
		algo   core.Algorithm
		budget uint64
	}{{core.COWAlgorithm, 30}, {core.SDSAlgorithm, 20}} {
		cfg := restoreConfig(t, c.algo)
		body := checkpointBody(t, cfg, c.budget)
		if _, err := sim.ResumeEngine(cfg, withSum(body)); err != nil {
			t.Fatalf("%v: honest checkpoint: %v", c.algo, err)
		}
		body = rewrite(t, body, func(sp *snap.Snapshot) { orphan(t, sp.Mapper) })
		if _, err := sim.ResumeEngine(cfg, withSum(body)); err == nil {
			t.Errorf("%v: a checkpoint with a state in no dstate resumed", c.algo)
		}
	}
}
