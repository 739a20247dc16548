package sim_test

// Fuzz target for the checkpoint restore: a checkpoint is untrusted bytes,
// and resuming one must never panic. The fuzzed input is a snapshot body
// without its checksum; the target appends the CRC-32C, so a mutation gets
// past the checksum and reaches vm.RestoreStates and core.RestoreMapper —
// where snap's FuzzDecode stops.

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"sde/internal/core"
	"sde/internal/rime"
	"sde/internal/sim"
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

func FuzzRestore(f *testing.F) {
	cfgs := make([]sim.Config, len(restoreAlgorithms))
	for i, algo := range restoreAlgorithms {
		cfgs[i] = restoreConfig(f, algo)
		for _, budget := range []uint64{12, 30} {
			body := checkpointBody(f, cfgs[i], budget)
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
	}

	f.Fuzz(func(t *testing.T, body []byte, pick uint8) {
		cfg := cfgs[int(pick)%len(cfgs)]
		data := withSum(body)
		eng, err := sim.ResumeEngine(cfg, data)
		if err != nil {
			return
		}
		if err := eng.Mapper().CheckInvariants(); err != nil {
			t.Fatalf("%v checkpoint resumed into a broken mapper: %v", cfg.Algorithm, err)
		}
		if cfg.Algorithm != core.COBAlgorithm {
			return
		}
		// A COB frontier is sliceable: a slice restores a subset of its rows.
		for seg := 0; seg < 2; seg++ {
			eng, err := sim.ResumeEngineSlice(cfg, data, seg, 2)
			if err != nil {
				continue
			}
			if err := eng.Mapper().CheckInvariants(); err != nil {
				t.Fatalf("slice %d/2 of a COB checkpoint resumed into a broken mapper: %v", seg, err)
			}
		}
	})
}
