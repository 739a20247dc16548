package sim_test

// Symmetry reduction regression tests at the whole-run
// level. Reduction (off by default) is violation-set-preserving but NOT
// bit-identical: pruning orbit-duplicate branches shrinks state counts
// and dscenario fingerprint populations by design, and pruned branches'
// violations come back as synthesized orbit twins. The oracle here is
// therefore set equality of (node, time, msg) violation triples — plus
// full bit-identity for the algorithms where the symmetry layer is
// inert (COW, SDS) and reduction must be completely invisible.

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

// floodProgram builds the reduction test workload's node software: a
// flood with a duplicate-suppression assertion. Nodes with a nonzero
// role word originate one beacon after `role` ticks (and count it as
// their own first reception); every node relays the first beacon it
// hears, and asserts that no second beacon ever arrives. The violation
// TIME at a node depends on when its feeders' relays arrive, which in
// turn depends on which other nodes dropped their first reception — so
// the violation set varies across a drop orbit's members in a
// non-monotone way, and some (node, time) triples occur only in
// branches a reduced run prunes. Those are exactly the violations the
// engine's witness expansion must synthesize back.
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

// floodConfig builds the 3x3 grid configuration the reduction tests
// share: the center originates the flood at t=1 and symbolic
// first-reception drops are armed on its edge ring {1, 3, 5, 7} — a
// full orbit of the grid's dihedral group, which survives stabilization
// by the declared center label. The 16 drop assignments fall into 6
// orbits, so a COB run with reduction on must prune; the duplicate
// assert fires at times that depend on which ring nodes dropped, so the
// violation set differs across the members of each orbit.
func floodConfig(t *testing.T, algo core.Algorithm) sim.Config {
	t.Helper()
	g := sim.NewGrid(3, 3)
	const center = 4
	labels := make([]uint64, g.K())
	labels[center] = 1
	return sim.Config{
		Topo:      g,
		Prog:      floodProgram(t),
		Algorithm: algo,
		Horizon:   14,
		NodeInit: func(node int, s *vm.State, eb *expr.Builder) {
			if node == center {
				s.StoreWord(floodAddrRole, eb.Const(1, vm.WordBits))
			}
		},
		Failures:        sim.FailurePlan{DropFirst: map[int]bool{1: true, 3: true, 5: true, 7: true}},
		CheckInvariants: true,
		Symmetry:        &sim.ReduceSymmetry{Labels: labels},
	}
}

// withReduction enables the symmetry reduction subsystem.
func withReduction(cfg sim.Config) sim.Config {
	cfg.Layers.Reduce = true
	return cfg
}

// violationSet projects a run's violations to the set of distinct
// (node, time, msg) triples — the reduction-invariant observable. The
// same triple can be observed on many branches (and synthesized twins
// are deduplicated against observed ones), so multiplicity is not
// preserved and a set, not a multiset, is compared.
func violationSet(res *sim.Result) map[string]bool {
	set := make(map[string]bool, len(res.Violations))
	for _, v := range res.Violations {
		set[fmt.Sprintf("%d/%d/%s", v.Node, v.Time, v.Msg)] = true
	}
	return set
}

// compareViolationSets requires two runs to report identical violation
// triple sets.
func compareViolationSets(t *testing.T, got, want *sim.Result) {
	t.Helper()
	gotSet, wantSet := violationSet(got), violationSet(want)
	for k := range wantSet {
		if !gotSet[k] {
			t.Errorf("violation %s missing", k)
		}
	}
	for k := range gotSet {
		if !wantSet[k] {
			t.Errorf("violation %s is spurious", k)
		}
	}
}

// TestReductionOnOffEquivalence: reduction must preserve the violation
// set for every mapping algorithm. For COB — the only algorithm whose
// seen-set consultation can prune — the on-run must actually pin
// decisions and explore strictly fewer states (otherwise the oracle
// proves nothing), and some of the matched violations must be
// synthesized orbit twins. For COW and SDS the symmetry layer is inert
// by design, so reduction must be bit-invisible there.
func TestReductionOnOffEquivalence(t *testing.T) {
	for _, algo := range allAlgorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			on := runQoptCfg(t, withReduction(floodConfig(t, algo)))
			off := runQoptCfg(t, floodConfig(t, algo))
			if off.Stats.Reduce.Checks != 0 || off.Stats.Reduce.Pins != 0 {
				t.Errorf("reduce-disabled run reports reduction activity: %+v", off.Stats.Reduce)
			}
			if len(off.Violations) == 0 {
				t.Fatal("workload produced no violations; the oracle proves nothing")
			}
			compareViolationSets(t, on, off)
			if algo == core.COBAlgorithm {
				if on.Stats.Reduce.Pins == 0 {
					t.Error("reduce-enabled COB run pinned nothing; workload no longer exercises pruning")
				}
				if on.FinalStates >= off.FinalStates {
					t.Errorf("reduced COB run explored %d states, unreduced %d — nothing pruned",
						on.FinalStates, off.FinalStates)
				}
				if on.Stats.Reduce.Synthesized == 0 {
					t.Error("reduced COB run synthesized no violations; witness expansion unexercised")
				}
			} else {
				// COW/SDS: the symmetry consultation is off and no merging
				// is configured, so reduction must be fully invisible.
				if on.Stats.Reduce.Pins != 0 {
					t.Errorf("%v run pinned %d decisions; symmetry pruning must be COB-only",
						algo, on.Stats.Reduce.Pins)
				}
				compareRuns(t, on, off)
			}
		})
	}
}

// TestReductionKillAndResume interrupts a reduction-enabled checkpointed
// COB run at its first checkpoint, resumes it (reduction still on), and
// requires the violation set to match an uninterrupted unreduced run.
// Reducer state is derived and never serialized — the resumed engine
// rebuilds the group and starts with an empty seen-set, so it prunes
// less than an uninterrupted reduced run would — but the violation set
// must still come out identical.
func TestReductionKillAndResume(t *testing.T) {
	ref := runQoptCfg(t, floodConfig(t, core.COBAlgorithm))

	cfg := withReduction(floodConfig(t, core.COBAlgorithm))
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
	compareViolationSets(t, res, ref)
}

// FuzzReductionEquivalence cross-validates reduction on/off over random
// single-broadcaster flood scenarios: random topology shape (3x3 grid
// with a center broadcaster, or a full mesh with node 0 broadcasting),
// a random armed drop set, and a random mapping algorithm. Random armed
// sets are rarely symmetric, which exercises the reducer's armed-set
// group filtering (inert decisions, partial orbits, trivial groups)
// alongside the full-orbit pruning the deterministic tests pin.
func FuzzReductionEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Add(int64(1234), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, algoPick uint8) {
		rng := rand.New(rand.NewSource(seed))
		algo := allAlgorithms[int(algoPick)%len(allAlgorithms)]

		var topo sim.Topology
		var bcaster int
		if rng.Intn(2) == 0 {
			topo = sim.NewGrid(3, 3)
			bcaster = 4
		} else {
			topo = sim.NewFullMesh(3 + rng.Intn(3)) // 3..5 nodes
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
		labels := make([]uint64, topo.K())
		labels[bcaster] = 1

		run := func(reduce bool) *sim.Result {
			cfg := sim.Config{
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
				Symmetry:        &sim.ReduceSymmetry{Labels: labels},
				Caps:            sim.Caps{MaxStates: 100000},
				Layers:          sim.Layers{Reduce: reduce},
			}
			eng, err := sim.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Aborted {
				t.Skipf("aborted: %s", res.AbortReason)
			}
			return res
		}
		on, off := run(true), run(false)
		compareViolationSets(t, on, off)
		if algo != core.COBAlgorithm {
			compareRuns(t, on, off)
		}
	})
}
