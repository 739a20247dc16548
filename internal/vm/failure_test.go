package vm

import (
	"testing"

	"sde/internal/isa"
)

func failureTestState(t *testing.T) (*Context, *State) {
	t.Helper()
	b := isa.NewBuilder()
	boot := b.Func("boot")
	boot.MovI(isa.R3, 0)
	boot.MovI(isa.R1, 7)
	boot.Store(isa.R3, 0x40, isa.R1)
	boot.Ret()
	recv := b.Func("on_recv")
	recv.MovI(isa.R3, 0)
	recv.Load(isa.R4, isa.R3, 0x41)
	recv.AddI(isa.R4, isa.R4, 1)
	recv.Store(isa.R3, 0x41, isa.R4)
	recv.Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	return ctx, NewState(ctx, prog, 2)
}

func TestPeekEvent(t *testing.T) {
	_, s := failureTestState(t)
	if _, ok := s.PeekEvent(); ok {
		t.Error("PeekEvent on empty queue reported an event")
	}
	s.PushEvent(Event{Time: 5, Kind: EventTimer, Fn: 0})
	ev, ok := s.PeekEvent()
	if !ok || ev.Time != 5 {
		t.Fatalf("PeekEvent = %+v, %v", ev, ok)
	}
	// Peek must not consume.
	if s.PendingEvents() != 1 {
		t.Error("PeekEvent consumed the event")
	}
}

func TestDropEvent(t *testing.T) {
	_, s := failureTestState(t)
	s.PushEvent(Event{Time: 5, Kind: EventRecv, Fn: 1, Src: 0})
	s.PushEvent(Event{Time: 9, Kind: EventTimer, Fn: 0})
	s.DropEvent()
	ev, ok := s.PeekEvent()
	if !ok || ev.Time != 9 {
		t.Errorf("after drop, next = %+v, %v; want the timer at 9", ev, ok)
	}
}

func TestDropEventEmptyPanics(t *testing.T) {
	_, s := failureTestState(t)
	defer func() {
		if recover() == nil {
			t.Error("DropEvent on empty queue did not panic")
		}
	}()
	s.DropEvent()
}

func TestDuplicateEvent(t *testing.T) {
	ctx, s := failureTestState(t)
	s.PushEvent(Event{Time: 5, Kind: EventRecv, Fn: 1, Src: 0,
		Data: nil})
	s.DuplicateEvent()
	if s.PendingEvents() != 2 {
		t.Fatalf("events = %d, want 2", s.PendingEvents())
	}
	// Run both: the handler increments the counter twice.
	for s.PendingEvents() > 0 {
		s.BeginEvent(0x8000)
		if err := s.Run(5, 0, NopHooks{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.LoadWord(0x41); !got.IsConst() || got.ConstVal() != 2 {
		t.Errorf("recv counter = %v, want 2", got)
	}
	_ = ctx
}

func TestReboot(t *testing.T) {
	ctx, s := failureTestState(t)
	// Populate volatile state.
	s.StoreWord(0x40, ctx.Exprs.Const(7, WordBits))
	s.RecordSend(1, 3, 0x9)
	s.PushEvent(Event{Time: 10, Kind: EventRecv, Fn: 1, Src: 0})
	s.PushEvent(Event{Time: 20, Kind: EventTimer, Fn: 0})

	s.Reboot(0, 15)

	// Volatile memory cleared.
	if got := s.LoadWord(0x40); !got.IsConst() || got.ConstVal() != 0 {
		t.Errorf("memory survived reboot: %v", got)
	}
	// History kept (the packets were on the air).
	if len(s.History()) != 1 {
		t.Errorf("history = %d entries, want 1", len(s.History()))
	}
	// Old events gone; exactly one boot event at t+1.
	if s.PendingEvents() != 1 {
		t.Fatalf("events = %d, want 1", s.PendingEvents())
	}
	ev, _ := s.PeekEvent()
	if ev.Kind != EventBoot || ev.Time != 16 {
		t.Errorf("boot event = %+v, want EventBoot at 16", ev)
	}
	// The boot handler runs and re-initialises.
	s.BeginEvent(0x8000)
	if err := s.Run(16, 0, NopHooks{}); err != nil {
		t.Fatal(err)
	}
	if got := s.LoadWord(0x40); got.ConstVal() != 7 {
		t.Errorf("boot marker after reboot = %v, want 7", got)
	}
}

func TestRebootOnHaltedIsNoop(t *testing.T) {
	_, s := failureTestState(t)
	s.Halt()
	s.Reboot(0, 5)
	if s.Status() != StatusHalted {
		t.Error("reboot revived a halted state")
	}
	if s.PendingEvents() != 0 {
		t.Error("reboot scheduled events on a halted state")
	}
}

func TestRebootPreservesIdentity(t *testing.T) {
	_, s := failureTestState(t)
	id := s.ID()
	s.Reboot(0, 1)
	if s.ID() != id || s.NodeID() != 2 {
		t.Error("reboot changed state identity")
	}
}
