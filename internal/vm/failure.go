package vm

// Failure-model support: the network failure models of paper §IV-A
// ("symbolic packet drops", "packet duplicates, node failures and
// reboots") manipulate a state's event queue and lifecycle around the
// moment a reception event fires. These hooks are deliberately minimal —
// the policy lives in package sim.

// PeekEvent returns the earliest pending event without consuming it. The
// pointer is into the state's queue and is good until the next PushEvent,
// BeginEvent, DropEvent or DuplicateEvent on the state, which move the
// queue's elements; every caller reads the event's fields before then.
func (s *State) PeekEvent() (*Event, bool) {
	if len(s.events) == 0 {
		return nil, false
	}
	return &s.events[0], true
}

// DropEvent consumes the earliest pending event without executing its
// handler — the "packet dropped above the radio" side of a symbolic drop.
func (s *State) DropEvent() {
	if len(s.events) == 0 {
		panic("vm: DropEvent on empty queue")
	}
	s.popEvent()
}

// DuplicateEvent duplicates the earliest pending event in place, so its
// handler runs twice — the "packet duplicated" failure.
func (s *State) DuplicateEvent() {
	if len(s.events) == 0 {
		panic("vm: DuplicateEvent on empty queue")
	}
	s.PushEvent(s.events[0])
}

// Reboot models a node crash-and-restart at virtual time t: volatile state
// (registers, memory, call stack, pending timers and in-flight receptions)
// is discarded and a fresh boot event is scheduled at t+1. The
// communication history is kept — the packets were exchanged on the air
// regardless of the crash.
func (s *State) Reboot(bootFn int, t uint64) {
	if s.status == StatusHalted || s.status == StatusDead {
		return
	}
	s.mem.release()
	s.mem = newMemory(s.ctx)
	zero := s.ctx.zeroWord
	for i := range s.regs {
		s.regs[i] = zero
	}
	s.frames = s.frames[:0]
	s.fn = -1
	s.pc = 0
	s.status = StatusIdle
	s.events = nil
	s.PushEvent(Event{Time: t + 1, Kind: EventBoot, Fn: bootFn})
}
