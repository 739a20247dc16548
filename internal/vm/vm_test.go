package vm

import (
	"errors"
	"slices"
	"testing"

	"sde/internal/expr"
	"sde/internal/isa"
)

func build(t *testing.T, f func(b *isa.Builder)) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()
	f(b)
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return prog
}

// runMain builds a program, runs its "main" function on a fresh state, and
// returns the state.
func runMain(t *testing.T, h Hooks, f func(b *isa.Builder)) *State {
	t.Helper()
	prog := build(t, f)
	ctx := NewContext()
	s := NewState(ctx, prog, 1)
	s.StartCall(prog.FuncIndex("main"))
	if err := s.Run(0, 0, h); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return s
}

func constReg(t *testing.T, s *State, r isa.Reg) uint64 {
	t.Helper()
	v := s.Reg(r)
	if !v.IsConst() {
		t.Fatalf("r%d is symbolic: %v", r, v)
	}
	return v.ConstVal()
}

func TestConcreteArithmetic(t *testing.T) {
	s := runMain(t, NopHooks{}, func(b *isa.Builder) {
		f := b.Func("main")
		f.MovI(isa.R1, 100)
		f.MovI(isa.R2, 7)
		f.Add(isa.R3, isa.R1, isa.R2)
		f.Mul(isa.R4, isa.R3, isa.R2)
		f.URem(isa.R5, isa.R4, isa.R1)
		f.SubI(isa.R6, isa.R5, 4)
		f.Ret()
	})
	if got := constReg(t, s, isa.R3); got != 107 {
		t.Errorf("r3 = %d, want 107", got)
	}
	if got := constReg(t, s, isa.R4); got != 749 {
		t.Errorf("r4 = %d, want 749", got)
	}
	if got := constReg(t, s, isa.R5); got != 49 {
		t.Errorf("r5 = %d, want 49", got)
	}
	if got := constReg(t, s, isa.R6); got != 45 {
		t.Errorf("r6 = %d, want 45", got)
	}
	if s.Status() != StatusIdle {
		t.Errorf("status = %v, want idle", s.Status())
	}
}

func TestLoopExecution(t *testing.T) {
	// Sum 1..10 with a concrete loop.
	s := runMain(t, NopHooks{}, func(b *isa.Builder) {
		f := b.Func("main")
		f.MovI(isa.R1, 10) // counter
		f.MovI(isa.R2, 0)  // acc
		f.Label("loop")
		f.Add(isa.R2, isa.R2, isa.R1)
		f.SubI(isa.R1, isa.R1, 1)
		f.BrNZ(isa.R1, "loop")
		f.Ret()
	})
	if got := constReg(t, s, isa.R2); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	s := runMain(t, NopHooks{}, func(b *isa.Builder) {
		f := b.Func("main")
		f.MovI(isa.R1, 0x1000)
		f.MovI(isa.R2, 1234)
		f.Store(isa.R1, 5, isa.R2)
		f.Load(isa.R3, isa.R1, 5)
		f.Load(isa.R4, isa.R1, 6) // untouched: reads 0
		f.Ret()
	})
	if got := constReg(t, s, isa.R3); got != 1234 {
		t.Errorf("loaded %d, want 1234", got)
	}
	if got := constReg(t, s, isa.R4); got != 0 {
		t.Errorf("untouched word = %d, want 0", got)
	}
}

func TestCallReturn(t *testing.T) {
	s := runMain(t, NopHooks{}, func(b *isa.Builder) {
		f := b.Func("main")
		f.MovI(isa.R0, 20)
		f.Call("double")
		f.Call("double")
		f.Ret()
		d := b.Func("double")
		d.Add(isa.R0, isa.R0, isa.R0)
		d.Ret()
	})
	if got := constReg(t, s, isa.R0); got != 80 {
		t.Errorf("r0 = %d, want 80", got)
	}
}

func TestNestedCalls(t *testing.T) {
	s := runMain(t, NopHooks{}, func(b *isa.Builder) {
		f := b.Func("main")
		f.MovI(isa.R0, 3)
		f.Call("outer")
		f.Ret()
		o := b.Func("outer")
		o.Call("inner")
		o.AddI(isa.R0, isa.R0, 100)
		o.Ret()
		i := b.Func("inner")
		i.MulI(isa.R0, isa.R0, 10)
		i.Ret()
	})
	if got := constReg(t, s, isa.R0); got != 130 {
		t.Errorf("r0 = %d, want 130", got)
	}
}

type forkCollector struct {
	NopHooks
	siblings   []*State
	violations []*Violation
}

func (c *forkCollector) OnFork(_, sib *State)               { c.siblings = append(c.siblings, sib) }
func (c *forkCollector) OnViolation(_ *State, v *Violation) { c.violations = append(c.violations, v) }

func TestSymbolicBranchForks(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Sym(isa.R1, "x", 32)
		f.UltI(isa.R2, isa.R1, 50)
		f.BrNZ(isa.R2, "small")
		f.MovI(isa.R3, 2) // x >= 50
		f.Ret()
		f.Label("small")
		f.MovI(isa.R3, 1) // x < 50
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 1)
	s.StartCall(prog.FuncIndex("main"))
	h := &forkCollector{}
	if err := s.Run(0, 0, h); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.siblings) != 1 {
		t.Fatalf("forks = %d, want 1", len(h.siblings))
	}
	sib := h.siblings[0]
	if err := sib.Run(0, 0, h); err != nil {
		t.Fatalf("sibling Run: %v", err)
	}
	// Original takes the true branch (x < 50), sibling the false branch.
	if got := constReg(t, s, isa.R3); got != 1 {
		t.Errorf("original r3 = %d, want 1", got)
	}
	if got := constReg(t, sib, isa.R3); got != 2 {
		t.Errorf("sibling r3 = %d, want 2", got)
	}
	if len(s.PathCond()) != 1 || len(sib.PathCond()) != 1 {
		t.Errorf("path conditions: orig %d, sib %d constraints; want 1 each",
			len(s.PathCond()), len(sib.PathCond()))
	}
	// The two path conditions must be mutually exclusive.
	both := append(append([]*expr.Expr{}, s.PathCond()...), sib.PathCond()...)
	ok, err := ctx.Solver.Feasible(both)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("original and sibling path conditions are simultaneously satisfiable")
	}
}

func TestInfeasibleBranchDoesNotFork(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Sym(isa.R1, "x", 8) // 0..255 zero-extended
		f.UltI(isa.R2, isa.R1, 1000)
		f.BrNZ(isa.R2, "always")
		f.MovI(isa.R3, 99) // unreachable
		f.Ret()
		f.Label("always")
		f.MovI(isa.R3, 1)
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 1)
	s.StartCall(prog.FuncIndex("main"))
	h := &forkCollector{}
	if err := s.Run(0, 0, h); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.siblings) != 0 {
		t.Errorf("infeasible branch forked %d siblings", len(h.siblings))
	}
	if got := constReg(t, s, isa.R3); got != 1 {
		t.Errorf("r3 = %d, want 1", got)
	}
	if len(s.PathCond()) != 0 {
		t.Errorf("implied branch added %d constraints; want 0", len(s.PathCond()))
	}
}

// witnessCollector fills each violation's model the way an engine does: the
// VM reports the violation constraint, the hook solves its witness over the
// violating path.
type witnessCollector struct {
	forkCollector
	err error
}

func (c *witnessCollector) OnViolation(s *State, v *Violation) {
	model, sat, err := s.ctx.Solver.Witness(append(slices.Clip(s.PathCond()), v.Cond))
	if err == nil && !sat {
		err = errors.New("violation constraint unsatisfiable on its path")
	}
	if c.err == nil {
		c.err = err
	}
	v.Model = model
	c.forkCollector.OnViolation(s, v)
}

func TestAssertViolation(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Sym(isa.R1, "x", 32)
		f.NeI(isa.R2, isa.R1, 7)
		f.Assert(isa.R2, "x must not be 7")
		f.MovI(isa.R3, 1)
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 3)
	s.StartCall(prog.FuncIndex("main"))
	h := &witnessCollector{}
	if err := s.Run(42, 0, h); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.violations) != 1 {
		t.Fatalf("violations = %d, want 1", len(h.violations))
	}
	v := h.violations[0]
	if v.Msg != "x must not be 7" || v.Node != 3 || v.Time != 42 {
		t.Errorf("violation = %+v", v)
	}
	if h.err != nil {
		t.Fatalf("witness: %v", h.err)
	}
	if v.Model["x_n3_0"] != 7 {
		t.Errorf("witness model = %v, want x_n3_0=7", v.Model)
	}
	// Execution continues on the true side.
	if got := constReg(t, s, isa.R3); got != 1 {
		t.Errorf("r3 = %d, want 1 (execution should continue)", got)
	}
}

func TestAssertAlwaysTrueIsFree(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.MovI(isa.R1, 5)
		f.Assert(isa.R1, "concrete true")
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StartCall(prog.FuncIndex("main"))
	h := &forkCollector{}
	if err := s.Run(0, 0, h); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.violations) != 0 {
		t.Error("concrete-true assertion reported a violation")
	}
	if len(s.PathCond()) != 0 {
		t.Error("concrete-true assertion added constraints")
	}
}

func TestAssumeKillsInfeasible(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Sym(isa.R1, "x", 8)
		f.UltI(isa.R2, isa.R1, 10)
		f.Assume(isa.R2)
		f.UltI(isa.R3, isa.R1, 5)
		f.Not(isa.R4, isa.R3) // careful: Not is bitwise; use Eq against 0 instead
		f.EqI(isa.R4, isa.R3, 0)
		f.Assume(isa.R4) // x >= 5
		f.UltI(isa.R5, isa.R1, 3)
		f.Assume(isa.R5) // contradiction with x >= 5
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StartCall(prog.FuncIndex("main"))
	if err := s.Run(0, 0, NopHooks{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Status() != StatusDead {
		t.Errorf("status = %v, want dead after contradictory assume", s.Status())
	}
}

func TestHalt(t *testing.T) {
	s := runMain(t, NopHooks{}, func(b *isa.Builder) {
		f := b.Func("main")
		f.MovI(isa.R1, 1)
		f.Halt()
	})
	if s.Status() != StatusHalted {
		t.Errorf("status = %v, want halted", s.Status())
	}
	if _, ok := s.NextEventTime(); ok {
		t.Error("halted state still reports pending events")
	}
}

func TestStepBudget(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Label("spin")
		f.Jmp("spin")
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StartCall(prog.FuncIndex("main"))
	err := s.Run(0, 1000, NopHooks{})
	if !errors.Is(err, ErrStepBudget) {
		t.Errorf("err = %v, want ErrStepBudget", err)
	}
	if s.Status() != StatusDead {
		t.Errorf("status = %v, want dead", s.Status())
	}
}

func TestSymbolicAddressKills(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Sym(isa.R1, "p", 32)
		f.Load(isa.R2, isa.R1, 0)
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StartCall(prog.FuncIndex("main"))
	if err := s.Run(0, 0, NopHooks{}); err == nil {
		t.Error("symbolic load address did not error")
	}
	if s.Status() != StatusDead {
		t.Errorf("status = %v, want dead", s.Status())
	}
}

func TestNodeIDAndTime(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.NodeID(isa.R1)
		f.Time(isa.R2)
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 17)
	s.StartCall(prog.FuncIndex("main"))
	if err := s.Run(99, 0, NopHooks{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := constReg(t, s, isa.R1); got != 17 {
		t.Errorf("nodeid = %d, want 17", got)
	}
	if got := constReg(t, s, isa.R2); got != 99 {
		t.Errorf("time = %d, want 99", got)
	}
}

type sendCollector struct {
	NopHooks
	dsts     []uint32
	payloads [][]*expr.Expr
}

func (c *sendCollector) OnSend(_ *State, dst uint32, payload []*expr.Expr) {
	c.dsts = append(c.dsts, dst)
	c.payloads = append(c.payloads, payload)
}

func TestSend(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.MovI(isa.R1, 0x100) // buffer
		f.MovI(isa.R2, 11)
		f.Store(isa.R1, 0, isa.R2)
		f.MovI(isa.R2, 22)
		f.Store(isa.R1, 1, isa.R2)
		f.MovI(isa.R3, 5) // destination node
		f.Send(isa.R3, isa.R1, 2)
		f.Send(isa.R3, isa.R1, 2)
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 1)
	s.StartCall(prog.FuncIndex("main"))
	h := &sendCollector{}
	if err := s.Run(7, 0, h); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.dsts) != 2 || h.dsts[0] != 5 {
		t.Fatalf("sends = %v, want two to node 5", h.dsts)
	}
	if len(h.payloads[0]) != 2 ||
		h.payloads[0][0].ConstVal() != 11 || h.payloads[0][1].ConstVal() != 22 {
		t.Errorf("payload = %v", h.payloads[0])
	}
	// History recording is the delivery layer's job (a broadcast becomes
	// one history entry per neighbour); the raw VM records nothing.
	if hist := s.History(); len(hist) != 0 {
		t.Errorf("history = %+v, want empty before engine recording", hist)
	}
	seq := s.RecordSend(5, 7, 0x1)
	if seq != 0 {
		t.Errorf("first RecordSend seq = %d, want 0", seq)
	}
	if seq := s.RecordSend(5, 8, 0x2); seq != 1 {
		t.Errorf("second RecordSend seq = %d, want 1", seq)
	}
}

func TestTimerSchedulesEvent(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.MovI(isa.R1, 100) // delay
		f.MovI(isa.R2, 55)  // arg
		f.Timer("tick", isa.R1, isa.R2)
		f.Ret()
		tick := b.Func("tick")
		tick.Mov(isa.R5, isa.R0)
		tick.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 1)
	s.StartCall(prog.FuncIndex("main"))
	if err := s.Run(50, 0, NopHooks{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tm, ok := s.NextEventTime()
	if !ok || tm != 150 {
		t.Fatalf("NextEventTime = (%d,%v), want (150,true)", tm, ok)
	}
	ev := s.BeginEvent(0x8000)
	if ev.Kind != EventTimer {
		t.Fatalf("event kind = %v, want timer", ev.Kind)
	}
	if err := s.Run(ev.Time, 0, NopHooks{}); err != nil {
		t.Fatalf("Run tick: %v", err)
	}
	if got := constReg(t, s, isa.R5); got != 55 {
		t.Errorf("tick arg = %d, want 55", got)
	}
}

func TestBeginEventRecv(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("on_recv")
		f.Load(isa.R3, isa.R1, 0) // first payload word
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 2)
	payload := []*expr.Expr{ctx.Exprs.Const(77, WordBits)}
	s.PushEvent(Event{Time: 10, Kind: EventRecv, Fn: 0, Src: 9, Data: payload})
	ev := s.BeginEvent(0x8000)
	if ev.Src != 9 {
		t.Fatalf("ev.Src = %d", ev.Src)
	}
	if err := s.Run(ev.Time, 0, NopHooks{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := constReg(t, s, isa.R0); got != 9 {
		t.Errorf("R0 (src) = %d, want 9", got)
	}
	if got := constReg(t, s, isa.R3); got != 77 {
		t.Errorf("payload word = %d, want 77", got)
	}
}

func TestEventOrdering(t *testing.T) {
	prog := build(t, func(b *isa.Builder) { b.Func("f").Ret() })
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.PushEvent(Event{Time: 30, Kind: EventTimer, Fn: 0})
	s.PushEvent(Event{Time: 10, Kind: EventTimer, Fn: 0})
	s.PushEvent(Event{Time: 20, Kind: EventTimer, Fn: 0})
	s.PushEvent(Event{Time: 10, Kind: EventRecv, Fn: 0, Src: 1}) // FIFO tie
	var order []uint64
	var kinds []EventKind
	for {
		tm, ok := s.NextEventTime()
		if !ok {
			break
		}
		ev := s.BeginEvent(0x8000)
		order = append(order, tm)
		kinds = append(kinds, ev.Kind)
		if err := s.Run(tm, 0, NopHooks{}); err != nil {
			t.Fatal(err)
		}
	}
	want := []uint64{10, 10, 20, 30}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("event order = %v, want %v", order, want)
		}
	}
	if kinds[0] != EventTimer || kinds[1] != EventRecv {
		t.Errorf("same-time events not FIFO: %v", kinds)
	}
}

func TestForkIsolation(t *testing.T) {
	// After a fork, writes in one state must not leak into the other.
	prog := build(t, func(b *isa.Builder) { b.Func("f").Ret() })
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	c1 := ctx.Exprs.Const(1, WordBits)
	c2 := ctx.Exprs.Const(2, WordBits)
	s.StoreWord(100, c1)
	sib := s.Fork()
	s.StoreWord(100, c2)
	s.StoreWord(500, c2)
	if got := sib.LoadWord(100); got != c1 {
		t.Errorf("sibling sees %v at 100, want 1", got)
	}
	if got := sib.LoadWord(500); !got.IsConst() || got.ConstVal() != 0 {
		t.Errorf("sibling sees %v at 500, want 0", got)
	}
	if got := s.LoadWord(100); got != c2 {
		t.Errorf("original sees %v at 100, want 2", got)
	}
	sib.StoreWord(200, c2)
	if got := s.LoadWord(200); !got.IsConst() || got.ConstVal() != 0 {
		t.Errorf("original sees sibling's write at 200: %v", got)
	}
}

func TestForkCopiesEvents(t *testing.T) {
	prog := build(t, func(b *isa.Builder) { b.Func("f").Ret() })
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.PushEvent(Event{Time: 5, Kind: EventTimer, Fn: 0})
	sib := s.Fork()
	s.PushEvent(Event{Time: 3, Kind: EventTimer, Fn: 0})
	if n := sib.PendingEvents(); n != 1 {
		t.Errorf("sibling events = %d, want 1", n)
	}
	tm, _ := s.NextEventTime()
	if tm != 3 {
		t.Errorf("original next = %d, want 3", tm)
	}
	tm, _ = sib.NextEventTime()
	if tm != 5 {
		t.Errorf("sibling next = %d, want 5", tm)
	}
}

func TestFingerprintEquality(t *testing.T) {
	mk := func() *State {
		prog := build(t, func(b *isa.Builder) { b.Func("f").Ret() })
		ctx := NewContext()
		s := NewState(ctx, prog, 1)
		s.StoreWord(10, ctx.Exprs.Const(7, WordBits))
		s.RecordSend(2, 100, 0xabc)
		return s
	}
	a, b := mk(), mk()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identically constructed states (different contexts) fingerprint differently")
	}
	b.StoreWord(11, b.ctx.Exprs.Const(9, WordBits))
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("states with different memory fingerprint equal")
	}
}

func TestFingerprintForkedEqual(t *testing.T) {
	prog := build(t, func(b *isa.Builder) { b.Func("f").Ret() })
	ctx := NewContext()
	s := NewState(ctx, prog, 1)
	s.StoreWord(10, ctx.Exprs.Const(7, WordBits))
	s.PushEvent(Event{Time: 5, Kind: EventTimer, Fn: 0})
	sib := s.Fork()
	if s.Fingerprint() != sib.Fingerprint() {
		t.Error("fork is not a fingerprint-duplicate of its original")
	}
	sib.RecordRecv(3, 6, 0, 0x1, 0x2)
	if s.Fingerprint() == sib.Fingerprint() {
		t.Error("history divergence not reflected in fingerprint")
	}
}

func TestFingerprintZeroStoreInvariant(t *testing.T) {
	prog := build(t, func(b *isa.Builder) { b.Func("f").Ret() })
	ctx := NewContext()
	a := NewState(ctx, prog, 1)
	b := NewState(ctx, prog, 1)
	b.StoreWord(123, ctx.Exprs.Const(0, WordBits)) // dirty zero
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("storing an explicit zero changed the fingerprint")
	}
}

func TestForkOnFreshBool(t *testing.T) {
	prog := build(t, func(b *isa.Builder) { b.Func("f").Ret() })
	ctx := NewContext()
	s := NewState(ctx, prog, 4)
	sib := s.ForkOnFreshBool("drop_n4_0")
	if len(s.PathCond()) != 1 || len(sib.PathCond()) != 1 {
		t.Fatal("both sides should gain exactly one constraint")
	}
	ok, err := ctx.Solver.Feasible(append(append([]*expr.Expr{}, s.PathCond()...), sib.PathCond()...))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("drop fork sides are simultaneously satisfiable")
	}
}

func TestExploreFigure1(t *testing.T) {
	// The paper's Figure 1 program:
	//   int x = symbolic_input();
	//   if (x == 0)  -> path 1
	//   if (x < 50)
	//     if (x > 10) -> path 2 else path 3
	//   else -> path 4
	// Four paths, four concrete test cases.
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Sym(isa.R1, "x", 32)
		f.EqI(isa.R2, isa.R1, 0)
		f.BrNZ(isa.R2, "path1")
		f.UltI(isa.R2, isa.R1, 50)
		f.BrZ(isa.R2, "path4")
		f.UltI(isa.R2, isa.R1, 11)
		f.BrNZ(isa.R2, "path3")
		f.Print("path", isa.R1) // path 2: 10 < x < 50
		f.MovI(isa.R3, 2)
		f.Ret()
		f.Label("path1")
		f.MovI(isa.R3, 1)
		f.Ret()
		f.Label("path3")
		f.MovI(isa.R3, 3)
		f.Ret()
		f.Label("path4")
		f.MovI(isa.R3, 4)
		f.Ret()
	})
	ctx := NewContext()
	report, err := Explore(ctx, prog, "main", ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if len(report.Paths) != 4 {
		t.Fatalf("paths = %d, want 4", len(report.Paths))
	}
	// Each test case, replayed concretely, must land on the path that
	// produced it; collect the distinct path markers.
	markers := map[uint64]expr.Env{}
	for _, p := range report.Paths {
		marker := p.State.Reg(isa.R3).ConstVal()
		markers[marker] = p.TestCase
	}
	if len(markers) != 4 {
		t.Fatalf("distinct paths = %d, want 4 (markers %v)", len(markers), markers)
	}
	check := func(marker uint64, pred func(x uint64) bool) {
		x := markers[marker]["x_n0_0"]
		if !pred(x) {
			t.Errorf("path %d test case x=%d violates its region", marker, x)
		}
	}
	check(1, func(x uint64) bool { return x == 0 })
	check(2, func(x uint64) bool { return x > 10 && x < 50 })
	check(3, func(x uint64) bool { return x != 0 && x <= 10 })
	check(4, func(x uint64) bool { return x >= 50 })
}

func TestExploreMaxPaths(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		for i := 0; i < 6; i++ {
			f.Sym(isa.R1, "b", 1)
			f.BrNZ(isa.R1, "skip"+string(rune('0'+i)))
			f.Nop()
			f.Label("skip" + string(rune('0'+i)))
		}
		f.Ret()
	})
	ctx := NewContext()
	report, err := Explore(ctx, prog, "main", ExploreOptions{MaxPaths: 10})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if len(report.Paths) != 10 {
		t.Errorf("paths = %d, want 10 (capped)", len(report.Paths))
	}
}

func TestExploreAllPathsDistinct(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		for i := 0; i < 5; i++ {
			f.Sym(isa.R1, "b", 1)
			f.BrNZ(isa.R1, "skip"+string(rune('0'+i)))
			f.Nop()
			f.Label("skip" + string(rune('0'+i)))
		}
		f.Ret()
	})
	ctx := NewContext()
	report, err := Explore(ctx, prog, "main", ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if len(report.Paths) != 32 {
		t.Fatalf("paths = %d, want 2^5 = 32", len(report.Paths))
	}
	seen := map[uint64]bool{}
	for _, p := range report.Paths {
		fp := p.State.Fingerprint()
		if seen[fp] {
			t.Fatal("two explored paths have identical fingerprints")
		}
		seen[fp] = true
	}
}

func TestOverheadBytesGrows(t *testing.T) {
	prog := build(t, func(b *isa.Builder) { b.Func("f").Ret() })
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	base := s.OverheadBytes()
	s.RecordSend(1, 0, 0)
	s.PushEvent(Event{Time: 1, Kind: EventTimer, Fn: 0})
	s.AddConstraint(ctx.Exprs.Var("c", 1))
	if s.OverheadBytes() <= base {
		t.Error("overhead accounting ignores history/events/constraints")
	}
	// Settling reports the whole overhead once, then only what changed; a
	// fork has settled nothing yet.
	if b, d := s.SettleOverhead(); b != s.OverheadBytes() || d != b {
		t.Errorf("first SettleOverhead = (%d, %d), want (%d, %d)", b, d, s.OverheadBytes(), s.OverheadBytes())
	}
	before := s.OverheadBytes()
	s.RecordSend(1, 1, 0)
	if _, d := s.SettleOverhead(); d != s.OverheadBytes()-before || d <= 0 {
		t.Errorf("SettleOverhead delta = %d, want the growth %d", d, s.OverheadBytes()-before)
	}
	if _, d := s.SettleOverhead(); d != 0 {
		t.Errorf("SettleOverhead delta with nothing changed = %d, want 0", d)
	}
	if b, d := s.Fork().SettleOverhead(); d != b {
		t.Errorf("fork's first SettleOverhead = (%d, %d), want its whole overhead as delta", b, d)
	}
}

func TestSharedPagesCountedOnce(t *testing.T) {
	prog := build(t, func(b *isa.Builder) { b.Func("f").Ret() })
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StoreWord(0, ctx.Exprs.Const(1, WordBits))
	s.StoreWord(1000, ctx.Exprs.Const(2, WordBits))
	if got := ctx.LivePages(); got != 2 {
		t.Fatalf("live pages = %d, want 2", got)
	}
	sib := s.Fork()
	if got := ctx.LivePages(); got != 2 {
		t.Errorf("live pages after fork = %d, want 2 (pages shared after fork)", got)
	}
	// Writing one page in the fork splits it; writing it again does not.
	sib.StoreWord(0, ctx.Exprs.Const(3, WordBits))
	sib.StoreWord(1, ctx.Exprs.Const(4, WordBits))
	if got := ctx.LivePages(); got != 3 {
		t.Errorf("live pages after COW split = %d, want 3", got)
	}
	// The original is now the split page's only holder: writing it in
	// place must not copy.
	s.StoreWord(0, ctx.Exprs.Const(5, WordBits))
	if got := ctx.LivePages(); got != 3 {
		t.Errorf("live pages after in-place write = %d, want 3", got)
	}
}

// TestReleaseDropsLivePages: a page leaves the live count with its last
// holder, and releasing a state twice takes nothing more off the count.
func TestReleaseDropsLivePages(t *testing.T) {
	prog := build(t, func(b *isa.Builder) { b.Func("f").Ret() })
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StoreWord(0, ctx.Exprs.Const(1, WordBits))
	s.StoreWord(1000, ctx.Exprs.Const(2, WordBits))
	sib := s.Fork()
	sib.StoreWord(0, ctx.Exprs.Const(3, WordBits)) // private copy of page 0
	sib.Release()
	if got := ctx.LivePages(); got != 2 {
		t.Fatalf("live pages after releasing the fork = %d, want 2 (its private copy is gone, the shared page stays)", got)
	}
	sib.Release()
	if got := ctx.LivePages(); got != 2 {
		t.Fatalf("live pages after a second Release = %d, want 2", got)
	}
	s.Release()
	s.Release()
	if got := ctx.LivePages(); got != 0 {
		t.Fatalf("live pages after releasing every state = %d, want 0", got)
	}
	// Reboot discards volatile memory: the rebooted state's pages die.
	r := NewState(ctx, prog, 1)
	r.StoreWord(0, ctx.Exprs.Const(1, WordBits))
	r.Reboot(0, 0)
	if got := ctx.LivePages(); got != 0 {
		t.Fatalf("live pages after reboot = %d, want 0", got)
	}
}

// TestImpliedConcretization: once x == 7 is in the path condition, later
// branches over x have one feasible side — no fork, no new constraint.
func TestImpliedConcretization(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Sym(isa.R1, "x", 8)
		f.EqI(isa.R2, isa.R1, 7)
		f.BrNZ(isa.R2, "pinned")
		f.MovI(isa.R3, 2) // x != 7
		f.Ret()
		f.Label("pinned")
		// x == 7 is bound: both comparisons below have known outcomes.
		f.UltI(isa.R4, isa.R1, 10) // 7 < 10: true
		f.BrZ(isa.R4, "dead")
		f.UltI(isa.R5, isa.R1, 3) // 7 < 3: false
		f.BrNZ(isa.R5, "dead")
		f.MovI(isa.R3, 1)
		f.Ret()
		f.Label("dead")
		f.MovI(isa.R3, 99)
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 1)
	s.StartCall(prog.FuncIndex("main"))
	h := &forkCollector{}
	if err := s.Run(0, 0, h); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.siblings) != 1 {
		t.Fatalf("forks = %d, want 1 (only the x==7 decision)", len(h.siblings))
	}
	if got := constReg(t, s, isa.R3); got != 1 {
		t.Errorf("r3 = %d, want 1 (pinned branches mispredicted)", got)
	}
	if got := len(s.PathCond()); got != 1 {
		t.Errorf("path condition has %d constraints, want 1 — implied branches must not add any", got)
	}
}
