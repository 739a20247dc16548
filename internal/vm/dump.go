package vm

import (
	"fmt"
	"strings"
)

// Dump renders a human-readable snapshot of the state for diagnostics:
// identity, program position, non-zero registers, touched memory words,
// path condition, communication history, and pending events.
func (s *State) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "state #%d node %d status=%s steps=%d\n",
		s.id, s.node, statusName(s.status), s.steps)
	if s.status == StatusRunning {
		fmt.Fprintf(&sb, "  at fn%d pc=%d, %d frames\n", s.fn, s.pc, len(s.frames))
	}
	for i, r := range s.regs {
		if r != nil && !(r.IsConst() && r.ConstVal() == 0) {
			fmt.Fprintf(&sb, "  r%-2d = %v\n", i, r)
		}
	}
	for _, sl := range s.mem.slots {
		for wi, id := range &sl.p.words {
			if w := s.ctx.Exprs.Node(id); w != nil && !(w.IsConst() && w.ConstVal() == 0) {
				fmt.Fprintf(&sb, "  mem[%#06x] = %v\n", sl.idx<<pageShift|uint32(wi), w)
			}
		}
	}
	for _, c := range s.pathCond {
		fmt.Fprintf(&sb, "  constraint %v\n", c)
	}
	for _, h := range s.hist {
		dir := "sent"
		if h.Dir == DirRecv {
			dir = "recv"
		}
		fmt.Fprintf(&sb, "  %s peer=%d t=%d seq=%d\n", dir, h.Peer, h.Time, h.Seq)
	}
	for _, ev := range s.events {
		fmt.Fprintf(&sb, "  pending %s at t=%d\n", eventKindName(ev.Kind), ev.Time)
	}
	return sb.String()
}

func statusName(st Status) string {
	switch st {
	case StatusIdle:
		return "idle"
	case StatusRunning:
		return "running"
	case StatusHalted:
		return "halted"
	case StatusDead:
		return "dead"
	default:
		return fmt.Sprintf("status(%d)", st)
	}
}

func eventKindName(k EventKind) string {
	switch k {
	case EventBoot:
		return "boot"
	case EventTimer:
		return "timer"
	case EventRecv:
		return "recv"
	default:
		return fmt.Sprintf("event(%d)", k)
	}
}
