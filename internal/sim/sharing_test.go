package sim_test

// The paper's reduction is state sharing (§III-B/C): COW and SDS represent
// the dscenarios COB enumerates one copy at a time with fewer states, and
// must lose nothing by it. These tests hold that reduction to COB on a
// flood whose violation times depend on which nodes dropped, so a
// dscenario the sharing lost or merged wrongly shows up as a missing or
// spurious (node, time, msg) triple — through a kill-and-resume too, and
// over random floods.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/isa"
	"sde/internal/sim"
	"sde/internal/snap"
	"sde/internal/vm"
)

const (
	floodAddrRole = 0x40  // nonzero: this node broadcasts after `role` ticks
	floodAddrSeen = 0x20  // receptions counted so far
	floodTxBuf    = 0x100 // scratch packet buffer
)

// floodProgram builds a flood with a duplicate-suppression assertion.
// Nodes with a nonzero role word originate one beacon after `role` ticks
// (and count it as their own first reception); every node relays the first
// beacon it hears, and asserts that no second beacon ever arrives. The
// violation time at a node depends on when its feeders' relays arrive,
// which in turn depends on which other nodes dropped their first
// reception.
func floodProgram(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()

	boot := b.Func("boot")
	boot.MovI(isa.R3, 0)
	boot.Load(isa.R1, isa.R3, floodAddrRole)
	boot.BrZ(isa.R1, "silent")
	boot.Timer("bcast", isa.R1, isa.R0)
	boot.Label("silent")
	boot.Ret()

	bcast := b.Func("bcast")
	bcast.MovI(isa.R3, 0)
	bcast.MovI(isa.R5, 1)
	bcast.Store(isa.R3, floodAddrSeen, isa.R5) // the originator heard its own
	bcast.MovI(isa.R4, floodTxBuf)
	bcast.MovI(isa.R5, 0xF100)
	bcast.Store(isa.R4, 0, isa.R5)
	bcast.MovI(isa.R6, isa.BroadcastAddr)
	bcast.Send(isa.R6, isa.R4, 1)
	bcast.Ret()

	recv := b.Func("on_recv")
	recv.MovI(isa.R3, 0)
	recv.Load(isa.R4, isa.R3, floodAddrSeen)
	recv.AddI(isa.R4, isa.R4, 1)
	recv.Store(isa.R3, floodAddrSeen, isa.R4)
	recv.NeI(isa.R5, isa.R4, 2)
	recv.Assert(isa.R5, "flood: duplicate beacon")
	recv.EqI(isa.R6, isa.R4, 1)
	recv.BrZ(isa.R6, "norelay") // relay the first reception only
	recv.MovI(isa.R7, floodTxBuf)
	recv.MovI(isa.R8, 0xF100)
	recv.Store(isa.R7, 0, isa.R8)
	recv.MovI(isa.R9, isa.BroadcastAddr)
	recv.Send(isa.R9, isa.R7, 1)
	recv.Label("norelay")
	recv.Ret()

	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// floodOn runs floodProgram on topo: bcaster originates the flood at t=1
// and symbolic first-reception drops are armed on drops.
func floodOn(t *testing.T, topo sim.Topology, bcaster int, drops map[int]bool, algo core.Algorithm) sim.Config {
	return sim.Config{
		Topo:      topo,
		Prog:      floodProgram(t),
		Algorithm: algo,
		Horizon:   14,
		NodeInit: func(node int, s *vm.State, eb *expr.Builder) {
			if node == bcaster {
				s.StoreWord(floodAddrRole, eb.Const(1, vm.WordBits))
			}
		},
		Failures:        sim.FailurePlan{DropFirst: drops},
		CheckInvariants: true,
	}
}

// floodConfig is the flood on a 3x3 grid: the center originates it and
// drops are armed on its edge ring {1, 3, 5, 7}.
func floodConfig(t *testing.T, algo core.Algorithm) sim.Config {
	t.Helper()
	return floodOn(t, sim.NewGrid(3, 3), 4, map[int]bool{1: true, 3: true, 5: true, 7: true}, algo)
}

// violationSet projects a run's violations to their distinct (node, time,
// msg) triples: COB reports a triple once per dscenario holding it, a
// sharing algorithm once per shared state, so only the set is comparable.
func violationSet(res *sim.Result) map[string]bool {
	set := make(map[string]bool, len(res.Violations))
	for _, v := range res.Violations {
		set[fmt.Sprintf("%d/%d/%s", v.Node, v.Time, v.Msg)] = true
	}
	return set
}

// requireSameCoverage requires res to represent as many dscenarios as the
// COB run cob, with the same violation triples, in no more states.
func requireSameCoverage(t *testing.T, res, cob *sim.Result) {
	t.Helper()
	if res.DScenarios.Cmp(cob.DScenarios) != 0 {
		t.Errorf("%v represents %v dscenarios, COB %v", res.Algorithm, res.DScenarios, cob.DScenarios)
	}
	gotV, wantV := violationSet(res), violationSet(cob)
	for k := range wantV {
		if !gotV[k] {
			t.Errorf("%v: violation %s missing", res.Algorithm, k)
		}
	}
	for k := range gotV {
		if !wantV[k] {
			t.Errorf("%v: violation %s is spurious", res.Algorithm, k)
		}
	}
	if res.FinalStates > cob.FinalStates {
		t.Errorf("%v holds %d states, more than COB's %d", res.Algorithm, res.FinalStates, cob.FinalStates)
	}
}

// TestReductionOnOffEquivalence: with sharing off (COB) the flood's 3x3
// grid holds every dscenario as its own nine states; with it on (COW, SDS)
// as many dscenarios and the same violation triples come out of no more
// states — of fewer under SDS.
func TestReductionOnOffEquivalence(t *testing.T) {
	off := runCfg(t, floodConfig(t, core.COBAlgorithm))
	if len(off.Violations) == 0 {
		t.Fatal("workload produced no violations; the oracle proves nothing")
	}
	for _, algo := range allAlgorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			on := runCfg(t, floodConfig(t, algo))
			t.Logf("%v: %d states, %v dscenarios, %d violation triples",
				algo, on.FinalStates, on.DScenarios, len(violationSet(on)))
			if algo == core.COBAlgorithm {
				requireSameRun(t, on, off)
				dsc := scenarioSet(on)
				for fp, n := range dsc {
					if n != 1 {
						t.Errorf("COB holds %d copies of dscenario %x", n, fp)
					}
				}
				if want := 9 * len(dsc); on.FinalStates != want {
					t.Errorf("COB holds %d states for %d dscenarios, want %d", on.FinalStates, len(dsc), want)
				}
				return
			}
			requireSameCoverage(t, on, off)
			// Every node relays, so COW copies every node COB does; SDS
			// shares the nodes a drop did not reach yet.
			if algo == core.SDSAlgorithm && on.FinalStates >= off.FinalStates {
				t.Errorf("SDS holds %d states, COB %d: nothing shared", on.FinalStates, off.FinalStates)
			}
		})
	}
}

// TestReductionKillAndResume kills a checkpointed SDS flood at its first
// checkpoint and resumes it: the resumed run is the uninterrupted SDS run,
// and still covers COB's.
func TestReductionKillAndResume(t *testing.T) {
	ref := runCfg(t, floodConfig(t, core.COBAlgorithm))

	cfg := floodConfig(t, core.SDSAlgorithm)
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 8
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(cfg.CheckpointDir, snap.CheckpointFile)
	interrupted := false
	for eng.Step() {
		if _, err := os.Stat(ckpt); err == nil {
			interrupted = true
			break
		}
	}
	if !interrupted {
		t.Fatal("run finished before the first checkpoint; shrink CheckpointEvery")
	}
	data, err := snap.LoadBytes(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := sim.ResumeEngine(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Error("resumed run does not report Resumed")
	}
	requireSameCoverage(t, res, ref)
	requireSameRun(t, res, runCfg(t, floodConfig(t, core.SDSAlgorithm)))
}

// FuzzReductionEquivalence: on random floods — a 3x3 grid or a 3..5-node
// full mesh, drops armed on a random set of non-originators — COW or SDS
// covers what COB enumerates.
func FuzzReductionEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Add(int64(1234), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, algoPick uint8) {
		rng := rand.New(rand.NewSource(seed))
		sharing := []core.Algorithm{core.COWAlgorithm, core.SDSAlgorithm}
		algo := sharing[int(algoPick)%len(sharing)]

		var topo sim.Topology
		var bcaster int
		if rng.Intn(2) == 0 {
			topo = sim.NewGrid(3, 3)
			bcaster = 4
		} else {
			topo = sim.NewFullMesh(3 + rng.Intn(3))
			bcaster = 0
		}
		drops := map[int]bool{}
		for n := 0; n < topo.K(); n++ {
			if n != bcaster && rng.Intn(2) == 0 {
				drops[n] = true
			}
		}
		if len(drops) == 0 {
			drops[(bcaster+1)%topo.K()] = true
		}

		run := func(algo core.Algorithm) *sim.Result {
			res := runCfg(t, floodOn(t, topo, bcaster, drops, algo))
			if res.Aborted {
				t.Fatalf("%v aborted: %s", algo, res.AbortReason)
			}
			return res
		}
		requireSameCoverage(t, run(algo), run(core.COBAlgorithm))
	})
}
