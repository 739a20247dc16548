package sim

import (
	"testing"
	"time"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/isa"
	"sde/internal/solver"
)

// chattyProgram builds a program that keeps scheduling timer events, so
// a run produces enough events to cross several progress polls.
func chattyProgram(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()
	boot := b.Func("boot")
	boot.MovI(isa.R1, 1)
	boot.Timer("tick", isa.R1, isa.R0)
	boot.Ret()
	tick := b.Func("tick")
	tick.MovI(isa.R1, 1)
	tick.Timer("tick", isa.R1, isa.R0)
	tick.Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestProgressHookStopsRun: returning true from the Progress hook ends
// the run and marks the result Stopped (not Aborted, not finished).
func TestProgressHookStopsRun(t *testing.T) {
	polls := 0
	cfg := Config{
		Topo:      NewLine(2),
		Algorithm: core.SDSAlgorithm,
		Prog:      chattyProgram(t),
		Horizon:   10000,
		Progress: func(states int, elapsed time.Duration) bool {
			polls++
			if states <= 0 {
				t.Errorf("progress poll saw %d states", states)
			}
			if elapsed < 0 {
				t.Errorf("progress poll saw negative elapsed %v", elapsed)
			}
			return polls >= 3
		},
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("result not marked Stopped")
	}
	if res.Aborted {
		t.Error("stopped run reported as aborted")
	}
	if polls != 3 {
		t.Errorf("polls = %d, want 3", polls)
	}
	// The run stopped well before the horizon's worth of events.
	if res.Events > 3 {
		t.Errorf("run processed %d events after the stop request", res.Events)
	}
	// A stopped engine stays stopped.
	if eng.Step() {
		t.Error("Step returned true after the run was stopped")
	}
}

// TestProgressHookNilNeverPolled: the default configuration runs to
// completion with no hook involvement.
func TestProgressHookNilNeverPolled(t *testing.T) {
	cfg := Config{
		Topo:      NewLine(2),
		Algorithm: core.SDSAlgorithm,
		Prog:      chattyProgram(t),
		Horizon:   100,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped {
		t.Error("run without a Progress hook reported Stopped")
	}
}

// TestSharedSolverCachePlumbing: a cache injected through the config's
// solver options backs the engine's solver, so two engines share verdicts even though
// each has its own expression builder.
func TestSharedSolverCachePlumbing(t *testing.T) {
	shared := solver.NewSharedCache()
	query := func(eng *Engine) {
		t.Helper()
		b := eng.Ctx().Exprs
		x := b.Var("probe", 16)
		sat, err := eng.Ctx().Solver.Feasible([]*expr.Expr{
			b.Eq(b.Mul(x, x), b.Const(49, 16)),
			b.Ult(x, b.Const(100, 16)),
		})
		if err != nil || !sat {
			t.Fatalf("probe query: sat=%v err=%v", sat, err)
		}
	}
	mkEngine := func() *Engine {
		t.Helper()
		eng, err := NewEngine(Config{
			Topo:      NewLine(2),
			Algorithm: core.SDSAlgorithm,
			Prog:      chattyProgram(t),
			Horizon:   50,
			Solver:    solver.Options{SharedCache: shared},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	first := mkEngine()
	query(first)
	second := mkEngine()
	query(second)
	if hits := second.Ctx().Solver.Stats().SharedHits; hits == 0 {
		t.Errorf("second engine's solver recorded no shared hits (cache stats %+v)",
			shared.Stats())
	}
}
