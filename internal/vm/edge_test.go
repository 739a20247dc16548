package vm

import (
	"testing"

	"sde/internal/expr"
	"sde/internal/isa"
)

func TestSymbolicStoreAddressKills(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Sym(isa.R1, "p", 32)
		f.MovI(isa.R2, 1)
		f.Store(isa.R1, 0, isa.R2)
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StartCall(prog.FuncIndex("main"))
	if err := s.Run(0, 0, NopHooks{}); err == nil {
		t.Error("symbolic store address did not error")
	}
	if s.Status() != StatusDead {
		t.Errorf("status = %v, want dead", s.Status())
	}
}

func TestSymbolicSendDestinationKills(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Sym(isa.R1, "dst", 32)
		f.MovI(isa.R2, 0x300)
		f.Send(isa.R1, isa.R2, 1)
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StartCall(prog.FuncIndex("main"))
	if err := s.Run(0, 0, NopHooks{}); err == nil {
		t.Error("symbolic send destination did not error")
	}
}

func TestSymbolicTimerDelayKills(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Sym(isa.R1, "d", 32)
		f.Timer("main", isa.R1, isa.R0)
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StartCall(prog.FuncIndex("main"))
	if err := s.Run(0, 0, NopHooks{}); err == nil {
		t.Error("symbolic timer delay did not error")
	}
}

func TestHaltDropsPendingEvents(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.MovI(isa.R1, 5)
		f.Timer("main", isa.R1, isa.R0)
		f.Halt()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StartCall(prog.FuncIndex("main"))
	if err := s.Run(0, 0, NopHooks{}); err != nil {
		t.Fatal(err)
	}
	if s.PendingEvents() != 0 {
		t.Errorf("halted state keeps %d pending events", s.PendingEvents())
	}
}

func TestDeepCallStack(t *testing.T) {
	// 64 levels of nested calls via a recursive-looking chain of two
	// functions (no real recursion: a counter drives repeated Call).
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.MovI(isa.R1, 0)
		f.Call("down")
		f.Ret()
		d := b.Func("down")
		d.AddI(isa.R1, isa.R1, 1)
		d.UltI(isa.R2, isa.R1, 64)
		d.BrZ(isa.R2, "base")
		d.Call("down")
		d.Label("base")
		d.AddI(isa.R3, isa.R3, 1) // counts unwinding steps
		d.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StartCall(prog.FuncIndex("main"))
	if err := s.Run(0, 0, NopHooks{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Reg(isa.R3).ConstVal(); got != 64 {
		t.Errorf("unwind count = %d, want 64", got)
	}
	if s.Status() != StatusIdle {
		t.Errorf("status = %v", s.Status())
	}
}

func TestPrintTrace(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.MovI(isa.R1, 7)
		f.Print("first", isa.R1)
		f.Sym(isa.R2, "x", 8)
		f.Print("second", isa.R2)
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StartCall(prog.FuncIndex("main"))
	if err := s.Run(42, 0, NopHooks{}); err != nil {
		t.Fatal(err)
	}
	tr := s.Trace()
	if len(tr) != 2 {
		t.Fatalf("trace = %d entries, want 2", len(tr))
	}
	if tr[0].Msg != "first" || tr[0].Time != 42 || tr[0].Val.ConstVal() != 7 {
		t.Errorf("entry 0 = %+v", tr[0])
	}
	if tr[1].Val.IsConst() {
		t.Error("symbolic print value was concretised")
	}
}

func TestForkPreservesTrace(t *testing.T) {
	prog := build(t, func(b *isa.Builder) { b.Func("f").Ret() })
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.own()
	s.trace = append(s.trace, TraceEntry{Time: 1, Msg: "x"})
	sib := s.Fork()
	s.own()
	s.trace = append(s.trace, TraceEntry{Time: 2, Msg: "y"})
	if len(sib.Trace()) != 1 {
		t.Errorf("sibling trace = %d entries, want 1", len(sib.Trace()))
	}
}

func TestReplayModeConcretisesInputs(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Sym(isa.R1, "x", 8)
		f.UltI(isa.R2, isa.R1, 100)
		f.BrNZ(isa.R2, "low")
		f.MovI(isa.R3, 2)
		f.Ret()
		f.Label("low")
		f.MovI(isa.R3, 1)
		f.Ret()
	})
	ctx := NewContext()
	ctx.Replay = expr.Env{"x_n0_0": 150}
	s := NewState(ctx, prog, 0)
	s.StartCall(prog.FuncIndex("main"))
	h := &forkCollector{}
	if err := s.Run(0, 0, h); err != nil {
		t.Fatal(err)
	}
	if len(h.siblings) != 0 {
		t.Error("replay mode forked")
	}
	if got := s.Reg(isa.R3).ConstVal(); got != 2 {
		t.Errorf("r3 = %d, want 2 (x=150 takes the high path)", got)
	}
	// Missing inputs default to zero.
	ctx2 := NewContext()
	ctx2.Replay = expr.Env{}
	s2 := NewState(ctx2, prog, 0)
	s2.StartCall(prog.FuncIndex("main"))
	if err := s2.Run(0, 0, NopHooks{}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Reg(isa.R3).ConstVal(); got != 1 {
		t.Errorf("r3 = %d, want 1 (default 0 takes the low path)", got)
	}
}

func TestContextCounters(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Sym(isa.R1, "b", 1)
		f.BrNZ(isa.R1, "t")
		f.Label("t")
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StartCall(prog.FuncIndex("main"))
	h := &forkCollector{}
	if err := s.Run(0, 0, h); err != nil {
		t.Fatal(err)
	}
	if ctx.Instructions() == 0 {
		t.Error("instruction counter not advanced")
	}
	if forks := ctx.Stats().Forks; forks != 1 {
		t.Errorf("fork counter = %d, want 1", forks)
	}
	if s.Steps() == 0 {
		t.Error("per-state step counter not advanced")
	}
}
