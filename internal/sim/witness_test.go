package sim_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sde/internal/core"
	"sde/internal/isa"
	"sde/internal/sim"
	"sde/internal/snap"
	"sde/internal/solver"
	"sde/internal/trace"
)

func witnessProg(t *testing.T, f func(b *isa.Builder)) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()
	f(b)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestWitnessFallsBackToLocal: node 0 sends its symbolic reading and only
// then branches on it, so node 1's path condition does not carry the branch.
// Node 1 asserts the reading is small. In the dscenario where node 0 took
// the small side, the conjunction with the violation is unsatisfiable, and
// the witness falls back to node 1's own path; in the other it is the
// dscenario's. Either way the model reaches the violation on replay.
func TestWitnessFallsBackToLocal(t *testing.T) {
	prog := witnessProg(t, func(b *isa.Builder) {
		boot := b.Func("boot")
		boot.NodeID(isa.R1)
		boot.BrNZ(isa.R1, "done")
		boot.Sym(isa.R2, "a", 8)
		boot.MovI(isa.R4, 0x300)
		boot.Store(isa.R4, 0, isa.R2)
		boot.MovI(isa.R3, 1)
		boot.Send(isa.R3, isa.R4, 1)
		boot.UltI(isa.R5, isa.R2, 10)
		boot.BrNZ(isa.R5, "done")
		boot.Label("done")
		boot.Ret()
		recv := b.Func("on_recv")
		recv.Load(isa.R2, isa.R1, 0)
		recv.UltI(isa.R3, isa.R2, 10)
		recv.Assert(isa.R3, "reading too large")
		recv.Ret()
	})
	cfg := sim.Config{Topo: sim.NewLine(2), Prog: prog, Algorithm: core.COBAlgorithm, Horizon: 50}
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Fatalf("%d violations, want one per dscenario (2)", len(res.Violations))
	}
	for _, v := range res.Violations {
		if a, ok := v.Model["a_n0_0"]; !ok || a < 10 {
			t.Errorf("witness %v does not make the reading large", v.Model)
		}
		ok, _, err := trace.ReplayViolation(cfg, v)
		if err != nil || !ok {
			t.Errorf("witness %v does not replay: %v", v.Model, err)
		}
	}
}

// TestWitnessErrorIsRunError: a witness whose solve fails fails the run,
// and the error names the violation. The run's feasibility verdicts come
// from a shared cache a first, unbudgeted run filled, so under a
// one-conflict budget only the witness — which reads no cache — must
// search: for the factors of a semiprime.
func TestWitnessErrorIsRunError(t *testing.T) {
	prog := witnessProg(t, func(b *isa.Builder) {
		boot := b.Func("boot")
		boot.Sym(isa.R1, "x", 16)
		boot.Sym(isa.R2, "y", 16)
		boot.UltI(isa.R3, isa.R1, 2)
		boot.EqI(isa.R3, isa.R3, 0)
		boot.Assume(isa.R3) // x > 1
		boot.Ult(isa.R3, isa.R1, isa.R2)
		boot.Assume(isa.R3) // x < y
		boot.Mul(isa.R4, isa.R1, isa.R2)
		boot.NeI(isa.R5, isa.R4, 251*65521)
		boot.Assert(isa.R5, "product is a semiprime")
		boot.Ret()
	})
	cache := solver.NewSharedCache()
	cfg := sim.Config{Topo: sim.NewLine(1), Prog: prog, Algorithm: core.COBAlgorithm, SharedSolverCache: cache}
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("%d violations, want 1", len(res.Violations))
	}
	if m := res.Violations[0].Model; m["x_n0_0"]*m["y_n0_1"] != 251*65521 {
		t.Fatalf("witness %v does not factor the product", m)
	}
	cfg.Solver.MaxConflicts = 1
	eng, err = sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	if !errors.Is(err, solver.ErrBudget) {
		t.Fatalf("budgeted run: err = %v, want the witness's ErrBudget", err)
	}
	for _, want := range []string{"node 0", "t=0", `"product is a semiprime"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name the violation (%s)", err, want)
		}
	}
}

// mixConfig: node 0 broadcasts a symbolic reading, every other node draws
// a symbolic offset, branches on one mix of the two and asserts another,
// and symbolically drops its first reception — violations in most
// dscenarios, each with a witness the SAT core solves.
func mixConfig(t *testing.T, k int, algo core.Algorithm) sim.Config {
	prog := witnessProg(t, func(b *isa.Builder) {
		boot := b.Func("boot")
		boot.NodeID(isa.R1)
		boot.BrNZ(isa.R1, "done")
		boot.Sym(isa.R2, "a", 8)
		boot.MovI(isa.R4, 0x300)
		boot.Store(isa.R4, 0, isa.R2)
		boot.MovI(isa.R3, isa.BroadcastAddr)
		boot.Send(isa.R3, isa.R4, 1)
		boot.Label("done")
		boot.Ret()
		recv := b.Func("on_recv")
		recv.Load(isa.R2, isa.R1, 0)
		recv.Sym(isa.R3, "b", 8)
		recv.MulI(isa.R4, isa.R2, 3)
		recv.Add(isa.R4, isa.R4, isa.R3)
		recv.UltI(isa.R5, isa.R4, 300)
		recv.BrNZ(isa.R5, "low")
		recv.Label("low")
		recv.MulI(isa.R6, isa.R3, 5)
		recv.Add(isa.R6, isa.R6, isa.R2)
		recv.AndI(isa.R6, isa.R6, 0xff)
		recv.NeI(isa.R7, isa.R6, 77)
		recv.Assert(isa.R7, "mix hits 77")
		recv.Ret()
	})
	drops := map[int]bool{}
	for n := 1; n < k; n++ {
		drops[n] = true
	}
	return sim.Config{
		Topo: sim.NewFullMesh(k), Prog: prog, Algorithm: algo, Horizon: 100,
		Failures: sim.FailurePlan{DropFirst: drops},
	}
}

// TestWitnessJoinedBeforeSnapshot: a run killed after any checkpoint and
// resumed reports the violations, witnesses included, of the run that was
// never interrupted. Checkpoints are cut at every event, while witnesses
// of the violations just reported are still being solved, so a snapshot
// that did not wait for them would carry violations without models (and
// race with their solves under -race).
func TestWitnessJoinedBeforeSnapshot(t *testing.T) {
	for _, algo := range []core.Algorithm{core.COBAlgorithm, core.SDSAlgorithm} {
		cfg := mixConfig(t, 4, algo)
		ref := runQoptCfg(t, cfg)
		if len(ref.Violations) == 0 {
			t.Fatal("the scenario reports no violation")
		}
		for at := uint64(1); at < ref.Events; at++ {
			cfg := cfg
			cfg.CheckpointDir = t.TempDir()
			cfg.CheckpointEvery = 1
			eng, err := sim.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < at && eng.Step(); i++ {
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
			if len(res.Violations) != len(ref.Violations) {
				t.Fatalf("%v, killed at %d events: %d violations, the uninterrupted run has %d",
					algo, at, len(res.Violations), len(ref.Violations))
			}
			for i, v := range res.Violations {
				w := ref.Violations[i]
				if v.Node != w.Node || v.Time != w.Time || v.Msg != w.Msg || !reflect.DeepEqual(v.Model, w.Model) {
					t.Fatalf("%v, killed at %d events: violation %d is %+v, the uninterrupted run has %+v",
						algo, at, i, *v, *w)
				}
			}
		}
	}
}
