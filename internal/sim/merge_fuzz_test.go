package sim_test

// FuzzMergeEquivalence: differential fuzzing of the state-merging
// subsystem. Each input derives a random small scenario (same generator
// as the cross-algorithm sweep in random_test.go) and a mapping
// algorithm, runs it merge-on and merge-off, and requires every
// observable output to match. The fuzzer explores scheduling shapes the
// hand-written oracles cannot anticipate — asymmetric failure plans,
// routes where the pop-time gate rarely opens, topologies where siblings
// diverge at many sites and the cost model must refuse to fuse.

import (
	"math/rand"
	"testing"

	"sde/internal/rime"
	"sde/internal/sim"
)

func FuzzMergeEquivalence(f *testing.F) {
	f.Add(int64(0), uint8(2))
	f.Add(int64(7), uint8(0))
	f.Add(int64(13), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, algoPick uint8) {
		algo := allAlgorithms[int(algoPick)%len(allAlgorithms)]
		rs := genScenario(rand.New(rand.NewSource(seed)))

		prog, err := rime.CollectProgram()
		if err != nil {
			t.Fatal(err)
		}
		cc := rime.CollectConfig{
			Source: rs.route[0], Sink: rs.route[len(rs.route)-1],
			Route: rs.route, Interval: 10, Packets: rs.packets,
		}
		nodeInit, err := cc.NodeInit(rs.topo.K())
		if err != nil {
			t.Fatal(err)
		}
		run := func(merge bool) *sim.Result {
			eng, err := sim.NewEngine(sim.Config{
				Topo:            rs.topo,
				Prog:            prog,
				Algorithm:       algo,
				Horizon:         uint64(10*rs.packets) + 100,
				NodeInit:        nodeInit,
				Failures:        rs.failures,
				CheckInvariants: true,
				Layers:          sim.Layers{Merge: merge},
				Caps:            sim.Caps{MaxStates: 100000},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("%s / %v merge=%v: %v", rs.desc, algo, merge, err)
			}
			if res.Aborted {
				t.Skipf("%s / %v aborted: %s", rs.desc, algo, res.AbortReason)
			}
			return res
		}
		on := run(true)
		off := run(false)
		compareRuns(t, on, off)
		if off.Stats.Merge.Merges != 0 {
			t.Errorf("merge-off run reports %d merges", off.Stats.Merge.Merges)
		}
	})
}
