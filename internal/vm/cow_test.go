package vm

// Copy-on-write states: a fork shares its parent's body until one of them
// writes. The table test drives every mutator through one of three forked
// siblings and holds the parent and the other two to what they were; the
// size guards keep a fork one small header.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sde/internal/expr"
	"sde/internal/isa"
)

// cowProg's on_recv handler reads the payload, stores it, sends it to node 1
// and prints; tick only prints.
func cowProg(t *testing.T) *isa.Program {
	return build(t, func(b *isa.Builder) {
		b.Func("boot").Ret()
		tick := b.Func("tick")
		tick.Print("tick", isa.R0)
		tick.Ret()
		recv := b.Func("on_recv")
		recv.Load(isa.R6, isa.R1, 0)
		recv.MovI(isa.R7, 0x40)
		recv.Store(isa.R7, 0, isa.R6)
		recv.MovI(isa.R8, 1)
		recv.Send(isa.R8, isa.R1, 1)
		recv.Print("recv", isa.R6)
		recv.Ret()
	})
}

// cowBase returns an idle state with two written pages, a path condition, a
// history, a trace entry and two queued events: one of everything a body
// holds.
func cowBase(t *testing.T) (*Context, *isa.Program, *State) {
	prog := cowProg(t)
	ctx := NewContext()
	eb := ctx.Exprs
	s := NewState(ctx, prog, 0)
	s.StoreWord(0x40, eb.Const(1, WordBits))
	s.StoreWord(0x1000, eb.Const(2, WordBits))
	s.AddConstraint(eb.Var("a", 1))
	s.AddConstraint(eb.Var("b", 1))
	s.RecordSend(1, 1, 0x11)
	s.RecordRecv(1, 2, 0, 0x22, 0x33)
	s.StartCall(prog.FuncIndex("tick"), eb.Const(5, WordBits))
	if err := s.Run(3, 0, NopHooks{}); err != nil {
		t.Fatal(err)
	}
	s.PushEvent(Event{Time: 4, Kind: EventRecv, Fn: prog.FuncIndex("on_recv"), Src: 1,
		Data: []*expr.Expr{eb.Const(9, WordBits)}})
	s.PushEvent(Event{Time: 6, Kind: EventTimer, Fn: prog.FuncIndex("tick"), Arg: eb.Const(7, WordBits)})
	if len(s.Trace()) != 1 || len(s.PathCond()) != 2 || len(s.History()) != 2 || s.PendingEvents() != 2 {
		t.Fatal("the base state lacks a list")
	}
	return ctx, prog, s
}

// stateView is a deep copy of everything a state shows.
type stateView struct {
	fingerprint uint64
	pathCond    []*expr.Expr
	hist        []HistEntry
	trace       []TraceEntry
	events      []Event
	frames      []frame
	status      Status
	steps       uint64
	overhead    int
}

func viewOf(s *State) stateView {
	events := slices.Clone(s.events)
	for i := range events {
		events[i].Data = slices.Clone(events[i].Data)
	}
	return stateView{
		fingerprint: s.Fingerprint(),
		pathCond:    slices.Clone(s.PathCond()),
		hist:        slices.Clone(s.History()),
		trace:       slices.Clone(s.Trace()),
		events:      events,
		frames:      slices.Clone(s.frames),
		status:      s.Status(),
		steps:       s.Steps(),
		overhead:    s.OverheadBytes(),
	}
}

// diff names the first thing s shows that differs from v, or "".
func (v stateView) diff(s *State) string {
	switch {
	case s.Fingerprint() != v.fingerprint:
		return fmt.Sprintf("fingerprint %#x, was %#x", s.Fingerprint(), v.fingerprint)
	case !slices.Equal(s.PathCond(), v.pathCond):
		return fmt.Sprintf("path condition %v, was %v", s.PathCond(), v.pathCond)
	case !slices.Equal(s.History(), v.hist):
		return fmt.Sprintf("history %v, was %v", s.History(), v.hist)
	case !slices.Equal(s.Trace(), v.trace):
		return fmt.Sprintf("trace %v, was %v", s.Trace(), v.trace)
	case !sameEvents(s.events, v.events):
		return fmt.Sprintf("events %v, was %v", s.events, v.events)
	case !slices.Equal(s.frames, v.frames):
		return fmt.Sprintf("frames %v, was %v", s.frames, v.frames)
	case s.Status() != v.status || s.Steps() != v.steps:
		return fmt.Sprintf("status/steps %v/%d, was %v/%d", s.Status(), s.Steps(), v.status, v.steps)
	case s.OverheadBytes() != v.overhead:
		return fmt.Sprintf("overhead %d, was %d", s.OverheadBytes(), v.overhead)
	}
	return ""
}

// TestCopyOnWriteMutators: a write through one of three forked siblings
// leaves the parent and the other two siblings as they were, and takes the
// writer a body of its own; once the parent is the last holder of the body
// they shared, it writes in place.
func TestCopyOnWriteMutators(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(s *State, prog *isa.Program)
	}{
		{"PushEvent", func(s *State, prog *isa.Program) {
			s.PushEvent(Event{Time: 5, Kind: EventTimer, Fn: prog.FuncIndex("tick")})
		}},
		{"popEvent", func(s *State, _ *isa.Program) { s.popEvent() }},
		{"RecordSend", func(s *State, _ *isa.Program) { s.RecordSend(1, 9, 0x77) }},
		{"RecordRecv", func(s *State, _ *isa.Program) { s.RecordRecv(1, 9, 3, 0x77, 0x99) }},
		{"NextRecvSeq", func(s *State, _ *isa.Program) { s.NextRecvSeq() }},
		{"AddConstraint", func(s *State, _ *isa.Program) { s.AddConstraint(s.ctx.Exprs.Var("c", 1)) }},
		{"InheritConstraints", func(s *State, _ *isa.Program) {
			s.InheritConstraints([]*expr.Expr{s.PathCond()[0], s.ctx.Exprs.Var("c", 1)})
		}},
		{"StoreWord shared page", func(s *State, _ *isa.Program) { s.StoreWord(0x41, s.ctx.Exprs.Const(3, WordBits)) }},
		{"StoreWord new page", func(s *State, _ *isa.Program) { s.StoreWord(0x8000, s.ctx.Exprs.Const(3, WordBits)) }},
		{"Kill", func(s *State, _ *isa.Program) { s.Kill(errors.New("killed")) }},
		{"Halt", func(s *State, _ *isa.Program) { s.Halt() }},
		{"BeginEvent", func(s *State, _ *isa.Program) { s.BeginEvent(0x200) }},
		{"StartCall", func(s *State, prog *isa.Program) {
			s.StartCall(prog.FuncIndex("tick"), s.ctx.Exprs.Const(8, WordBits))
		}},
		{"DropEvent", func(s *State, _ *isa.Program) { s.DropEvent() }},
		{"DuplicateEvent", func(s *State, _ *isa.Program) { s.DuplicateEvent() }},
		{"Reboot", func(s *State, prog *isa.Program) { s.Reboot(prog.FuncIndex("boot"), 9) }},
		{"specBranch", func(s *State, _ *isa.Program) {
			s.specBranch(s.ctx.Exprs.Var("c", 1), 0, 0)
			dropPending(s.ctx)
		}},
		{"specAssume", func(s *State, _ *isa.Program) {
			s.specAssume(s.ctx.Exprs.Var("c", 1))
			dropPending(s.ctx)
		}},
		{"removeConstraintAt", func(s *State, _ *isa.Program) { s.removeConstraintAt(0) }},
		{"restoreFrom", func(s *State, _ *isa.Program) {
			sib := s.fork()
			sib.AddConstraint(s.ctx.Exprs.Var("c", 1))
			sib.RecordSend(1, 9, 0x77)
			s.restoreFrom(sib, 1)
		}},
		{"Run", func(s *State, _ *isa.Program) {
			s.BeginEvent(0x200)
			if err := s.Run(4, 0, NopHooks{}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, prog, parent := cowBase(t)
			sibs := []*State{parent.Fork(), parent.Fork(), parent.Fork()}
			shared := parent.body
			if shared.ref != 4 {
				t.Fatalf("four states share a body with ref %d", shared.ref)
			}
			pages := ctx.LivePages()
			others := []*State{parent, sibs[0], sibs[2]}
			before := make([]stateView, len(others))
			for i, s := range others {
				before[i] = viewOf(s)
			}
			writer := sibs[1]
			tc.write(writer, prog)
			if writer.body == shared || writer.body.ref != 1 {
				t.Errorf("the writer holds the shared body or a body with ref %d", writer.body.ref)
			}
			for i, s := range others {
				if s.body != shared {
					t.Errorf("%v left the body it shared", s)
				}
				if d := before[i].diff(s); d != "" {
					t.Errorf("a write through %v changed %v: %s", writer, s, d)
				}
			}
			if len(ctx.pending) != 0 {
				t.Fatal("the write left a speculation pending")
			}
			writer.Release()
			sibs[0].Release()
			sibs[2].Release()
			if shared.ref != 1 {
				t.Fatalf("the parent is the last holder of its body, whose ref is %d", shared.ref)
			}
			if got := ctx.LivePages(); got != pages {
				t.Errorf("%d live pages with the parent alone, %d before the fork", got, pages)
			}
			parent.RecordSend(1, 9, 0x78)
			if parent.body != shared {
				t.Error("the parent's body, exclusive again, was copied on a write")
			}
			parent.Release()
			if got := ctx.LivePages(); got != 0 {
				t.Errorf("%d pages live after every state was released", got)
			}
		})
	}
}

// dropPending releases the frozen siblings of ctx's pending speculations
// and forgets them, as a resolution that kills the state would.
func dropPending(ctx *Context) {
	for _, e := range ctx.pending {
		if e.sib != nil {
			e.sib.Release()
		}
	}
	ctx.pending = ctx.pending[:0]
}

// forkingHooks forks the running state at every hook call, as the Hooks
// contract allows, and keeps each fork with what it showed then.
type forkingHooks struct {
	forks []*State
	views []stateView
}

func (h *forkingHooks) keep(s *State) {
	f := s.Fork()
	h.forks = append(h.forks, f)
	h.views = append(h.views, viewOf(f))
}

func (h *forkingHooks) OnFork(s, _ *State)                        { h.keep(s) }
func (h *forkingHooks) OnSend(s *State, _ uint32, _ []*expr.Expr) { h.keep(s) }
func (h *forkingHooks) OnViolation(s *State, _ *Violation)        { h.keep(s) }

// TestCopyOnWriteHookFork: Run owns the running state again after every hook
// call, so a fork a hook made of it — at a violation, at a branch, at a send,
// with speculation off and on — keeps what it showed then while the handler
// runs on.
func TestCopyOnWriteHookFork(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.Sym(isa.R1, "x", 1)
		f.Assert(isa.R1, "x")
		f.Print("asserted", isa.R1)
		f.Sym(isa.R2, "y", 1)
		f.BrNZ(isa.R2, "t")
		f.AddI(isa.R3, isa.R3, 1)
		f.Label("t")
		f.MovI(isa.R4, 0x40)
		f.Store(isa.R4, 0, isa.R2)
		f.MovI(isa.R5, 1)
		f.Send(isa.R5, isa.R4, 1)
		f.Store(isa.R4, 1, isa.R2)
		f.Print("sent", isa.R2)
		f.Ret()
	})
	for _, speculate := range []bool{false, true} {
		ctx := NewContext()
		ctx.Speculate = speculate
		s := NewState(ctx, prog, 0)
		s.StartCall(prog.FuncIndex("main"))
		h := &forkingHooks{}
		if err := s.Run(4, 0, h); err != nil {
			t.Fatal(err)
		}
		if len(h.forks) != 3 {
			t.Fatalf("speculate=%v: %d hook calls, want 3 (violation, branch, send)", speculate, len(h.forks))
		}
		for i, f := range h.forks {
			if d := h.views[i].diff(f); d != "" {
				t.Errorf("speculate=%v: the fork made at hook call %d changed as the handler ran on: %s", speculate, i, d)
			}
		}
	}
}

// TestStateSizeClass: a fork is one header of at most 32 bytes, and a body
// fits the allocator's 384-byte size class, one below the 416 bytes a state
// took when it was one object.
func TestStateSizeClass(t *testing.T) {
	if got := reflect.TypeOf(State{}).Size(); got > 32 {
		t.Errorf("a state header takes %d bytes, more than 32", got)
	}
	if got := reflect.TypeOf(body{}).Size(); got > 384 {
		t.Errorf("a state body takes %d bytes, more than its 384-byte size class", got)
	}
}
