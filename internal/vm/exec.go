package vm

import (
	"errors"
	"fmt"

	"sde/internal/expr"
	"sde/internal/isa"
)

// ErrNoBoot is returned when a program lacks the requested entry function.
var ErrNoBoot = errors.New("vm: program has no such entry function")

// ErrStepBudget is returned when one event handler exceeds the instruction
// budget, which almost always indicates an unbounded loop in node software.
var ErrStepBudget = errors.New("vm: event handler exceeded instruction budget")

// ErrAssertFails marks a state killed because an assertion cannot hold on
// any input reaching it. The violation itself is reported through
// Hooks.OnViolation before the state dies, so drivers typically do not
// report this error a second time.
var ErrAssertFails = errors.New("vm: assertion always fails")

// DefaultStepBudget bounds the instructions one event handler may execute.
const DefaultStepBudget = 1 << 20

// Hooks receives the side effects of symbolic execution that the engine
// (or the single-node explorer) must mediate.
type Hooks interface {
	// OnFork is called when the running state forks at a symbolic branch
	// or assertion; sibling is the newly created state, which is also
	// mid-event and must be driven to completion by the caller.
	OnFork(s, sibling *State)
	// OnSend is called when the running state transmits a packet.
	// dst is the destination node id (isa.BroadcastAddr = broadcast);
	// payload is the packet content. The callee owns delivery and
	// history recording — a broadcast is recorded as one send per
	// neighbour (paper footnote 1), which the VM cannot know.
	OnSend(s *State, dst uint32, payload []*expr.Expr)
	// OnViolation is called when an assertion can fail on s, before s
	// takes the assertion's true side. v carries the violation constraint
	// Cond and no Model: the implementation fills the model, solving Cond
	// with whatever constraints its view adds — s's path condition at
	// least — through solver.Solver.Witness.
	OnViolation(s *State, v *Violation)
}

// NopHooks is a Hooks implementation that ignores everything; useful in
// tests of pure computation.
type NopHooks struct{}

// OnFork implements Hooks.
func (NopHooks) OnFork(_, _ *State) {}

// OnSend implements Hooks.
func (NopHooks) OnSend(*State, uint32, []*expr.Expr) {}

// OnViolation implements Hooks.
func (NopHooks) OnViolation(*State, *Violation) {}

// BeginEvent dequeues the state's earliest event and prepares the state to
// execute its handler: the clock is the event's time, handler arguments
// are loaded into registers, and received payloads are copied into the RX
// buffer region. It returns the event. The state must be idle.
func (s *State) BeginEvent(rxBufAddr uint32) Event {
	if s.status != StatusIdle {
		panic("vm: BeginEvent on non-idle " + s.String())
	}
	s.own()
	ev := s.popEvent()
	s.fn = ev.Fn
	s.pc = 0
	s.frames = s.frames[:0]
	s.status = StatusRunning
	// Zero only the registers the handler may read before writing — the
	// compiled IR's interprocedural read-set (isa.FuncIR.LiveIn) — using
	// the context's cached zero word instead of taking the builder lock
	// per event. A register outside the read-set is unobservable to the
	// handler, so skipping its rewrite cannot change execution; the stale
	// value it keeps is a deterministic function of the state's own
	// history, so fingerprints stay stable and comparable across runs.
	// This is independent of the fast-path on/off switch (the IR is
	// always built), so compiled and interpreted runs see identical
	// register files.
	live := s.prog.IR().Funcs[ev.Fn].LiveIn
	zero := s.ctx.zeroWord
	for i := range s.regs {
		if live.Has(isa.Reg(i)) {
			s.regs[i] = zero
		}
	}
	switch ev.Kind {
	case EventTimer:
		if ev.Arg != nil {
			s.regs[isa.R0] = ev.Arg
		}
	case EventRecv:
		s.regs[isa.R0] = s.ctx.Exprs.Const(uint64(ev.Src), WordBits)
		s.regs[isa.R1] = s.ctx.Exprs.Const(uint64(rxBufAddr), WordBits)
		s.regs[isa.R2] = s.ctx.Exprs.Const(uint64(len(ev.Data)), WordBits)
		for i, w := range ev.Data {
			s.mem.store(rxBufAddr+uint32(i), w.ID())
		}
	}
	return ev
}

// StartCall prepares the state to run fn with the given register
// arguments, outside any event. Used for boot entry and by the single-node
// explorer.
func (s *State) StartCall(fn int, args ...*expr.Expr) {
	s.own()
	s.fn = fn
	s.pc = 0
	s.frames = s.frames[:0]
	s.status = StatusRunning
	zero := s.ctx.zeroWord
	for i := range s.regs {
		s.regs[i] = zero
	}
	for i, a := range args {
		s.regs[i] = a
	}
}

// Run executes the state's current activation until the handler returns,
// the state halts or dies, or the instruction budget is exceeded. now is
// the virtual time exposed by OpTime and stamped on history entries;
// budget <= 0 selects DefaultStepBudget.
//
// Forked siblings reported via Hooks.OnFork are left mid-event
// (StatusRunning); the caller must Run them as well.
//
// With Context.Speculate set, Run resolves every speculation it made before
// it returns (see spec.go). A state rewound onto a branch's false side runs
// on from that branch's budget position, so the instructions run on the
// abandoned path are not charged against the budget; a state a verdict
// killed returns the error it died of.
//
// The interpreter writes the state's body in place, so Run owns it on entry
// and again after every Hooks call: a hook may fork the running state.
func (s *State) Run(now uint64, budget int, h Hooks) error {
	if budget <= 0 {
		budget = DefaultStepBudget
	}
	s.own()
	for from := 0; ; {
		err := s.exec(now, from, budget, h)
		if len(s.ctx.pending) == 0 {
			return err
		}
		at, rewound := s.resolveSpec(h)
		switch {
		case rewound:
			from = at + 1
		case s.status == StatusDead:
			return s.runErr
		default:
			return err
		}
	}
}

// exec is Run's interpreter loop from budget position from on.
func (s *State) exec(now uint64, from, budget int, h Hooks) error {
	ctx, prog := s.ctx, s.prog // every body of the state shares them
	eb := ctx.Exprs
	var code *isa.ProgIR
	if ctx.compile {
		code = prog.IR()
	}
	for i := from; i < budget; i++ {
		// Run owns the body. Only a call that may fork the state — a
		// branch, an assertion, a send, a resolution — can replace it, so
		// an instruction writes through b up to such a call and through s
		// after it.
		b := s.body
		if b.status != StatusRunning {
			return nil
		}
		f := prog.Func(b.fn)
		if b.pc >= len(f.Instrs) {
			s.Kill(fmt.Errorf("vm: pc %d out of range in %s", b.pc, f.Name))
			return s.runErr
		}
		// Compiled-IR fast path: from a block leader, run the chain of
		// concretizable blocks control stays on (see fastpath.go) and skip
		// the per-instruction loop. A chain that hands off has stopped at
		// the leader of a block only the interpreter can execute.
		if code != nil && code.Funcs[b.fn].BlockIndex(b.pc) >= 0 {
			n, handoff := s.runFastChain(code, budget-i, now)
			if !handoff {
				if b.status != StatusRunning {
					return nil
				}
				i += n - 1
				continue
			}
			ctx.slowBlocks.Add(1)
			i += n
			f = prog.Func(b.fn)
		}
		in := &f.Instrs[b.pc]
		// Resolution barrier: an instruction whose effects escape the state
		// (a packet send, an assertion report) must not execute on an
		// unconfirmed path. Resolve every speculation first; the state
		// comes back confirmed, rewound onto a false side, or dead.
		if len(ctx.pending) > 0 && (in.Op == isa.OpAssert || in.Op == isa.OpSend) {
			if at, rewound := s.resolveSpec(h); rewound {
				i = at
				continue
			}
			if s.status != StatusRunning {
				return s.runErr
			}
			b = s.body
		}
		b.steps++
		ctx.instrCount.Add(1)

		switch in.Op {
		case isa.OpNop:
			b.pc++

		case isa.OpMovI:
			b.regs[in.Rd] = eb.Const(uint64(in.Imm), WordBits)
			b.pc++

		case isa.OpMov:
			b.regs[in.Rd] = b.regs[in.Ra]
			b.pc++

		case isa.OpNot:
			b.regs[in.Rd] = eb.Not(b.regs[in.Ra])
			b.pc++

		case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpUDiv, isa.OpURem,
			isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpLShr, isa.OpAShr,
			isa.OpEq, isa.OpNe, isa.OpUlt, isa.OpUle, isa.OpSlt, isa.OpSle:
			x := b.regs[in.Ra]
			var y *expr.Expr
			if in.BImm {
				y = eb.Const(uint64(in.Imm), WordBits)
			} else {
				y = b.regs[in.Rb]
			}
			b.regs[in.Rd] = s.alu(in.Op, x, y)
			b.pc++

		case isa.OpJmp:
			b.pc = in.Target

		case isa.OpBrNZ, isa.OpBrZ:
			cond := eb.Ne(b.regs[in.Ra], ctx.zeroWord)
			if in.Op == isa.OpBrZ {
				cond = eb.Not(cond)
			}
			if err := s.branch(cond, in.Target, i, h); err != nil {
				return err
			}

		case isa.OpCall:
			b.frames = append(b.frames, frame{fn: b.fn, pc: b.pc + 1})
			b.fn = in.Fn
			b.pc = 0

		case isa.OpRet:
			if len(b.frames) == 0 {
				s.status = StatusIdle
				b.fn = -1
				return nil
			}
			top := b.frames[len(b.frames)-1]
			b.frames = b.frames[:len(b.frames)-1]
			b.fn, b.pc = top.fn, top.pc

		case isa.OpHalt:
			s.Halt()
			return nil

		case isa.OpLoad:
			addr, err := s.concreteAddr(b.regs[in.Ra], in.Imm)
			if err != nil {
				s.Kill(err)
				return err
			}
			b.regs[in.Rd] = s.loadWord(addr)
			b.pc++

		case isa.OpStore:
			addr, err := s.concreteAddr(b.regs[in.Ra], in.Imm)
			if err != nil {
				s.Kill(err)
				return err
			}
			b.mem.store(addr, b.regs[in.Rb].ID())
			b.pc++

		case isa.OpSym:
			name := fmt.Sprintf("%s_n%d_%d", in.Sym, s.node, b.symSeq)
			b.symSeq++
			if ctx.Replay != nil {
				v := eb.Const(ctx.Replay[name], int(in.Imm))
				b.regs[in.Rd] = eb.ZExt(v, WordBits)
			} else {
				v := eb.Var(name, int(in.Imm))
				b.regs[in.Rd] = eb.ZExt(v, WordBits)
			}
			b.pc++

		case isa.OpAssert:
			if err := s.assert(in, now, h); err != nil {
				return err
			}
			s.pc++

		case isa.OpAssume:
			cond := eb.Ne(b.regs[in.Ra], ctx.zeroWord)
			if ctx.Speculate && !cond.IsTrue() && !cond.IsFalse() {
				s.specAssume(cond)
				continue
			}
			feasible, err := s.feasibleWith(cond)
			if err != nil {
				s.Kill(err)
				return err
			}
			if !feasible {
				s.Kill(errors.New("vm: infeasible assume"))
				return nil
			}
			s.AddConstraint(cond)
			s.pc++

		case isa.OpSend:
			dst := b.regs[in.Ra]
			if !dst.IsConst() {
				err := errors.New("vm: symbolic packet destination")
				s.Kill(err)
				return err
			}
			buf, err := s.concreteAddr(b.regs[in.Rb], 0)
			if err != nil {
				s.Kill(err)
				return err
			}
			payload := make([]*expr.Expr, in.Imm)
			for i := range payload {
				payload[i] = s.loadWord(buf + uint32(i))
			}
			// Advance past the send before notifying, so a state-mapping
			// fork of the sender (never done by the paper's algorithms,
			// but allowed by the interface) resumes after the send.
			b.pc++
			h.OnSend(s, uint32(dst.ConstVal()), payload)
			s.own()

		case isa.OpTimer:
			delay := b.regs[in.Ra]
			if !delay.IsConst() {
				err := errors.New("vm: symbolic timer delay")
				s.Kill(err)
				return err
			}
			s.PushEvent(Event{
				Time: now + delay.ConstVal(),
				Kind: EventTimer,
				Fn:   in.Fn,
				Arg:  b.regs[in.Rb],
			})
			s.pc++

		case isa.OpNodeID:
			b.regs[in.Rd] = eb.Const(uint64(s.node), WordBits)
			b.pc++

		case isa.OpTime:
			b.regs[in.Rd] = eb.Const(now&0xffffffff, WordBits)
			b.pc++

		case isa.OpPrint:
			b.trace = append(b.trace, TraceEntry{Time: now, Msg: in.Sym, Val: b.regs[in.Ra]})
			b.pc++

		default:
			err := fmt.Errorf("vm: invalid opcode %v", in.Op)
			s.Kill(err)
			return err
		}
	}
	s.Kill(ErrStepBudget)
	return ErrStepBudget
}

func (s *State) alu(op isa.Op, a, b *expr.Expr) *expr.Expr {
	eb := s.ctx.Exprs
	switch op {
	case isa.OpAdd:
		return eb.Add(a, b)
	case isa.OpSub:
		return eb.Sub(a, b)
	case isa.OpMul:
		return eb.Mul(a, b)
	case isa.OpUDiv:
		return eb.UDiv(a, b)
	case isa.OpURem:
		return eb.URem(a, b)
	case isa.OpAnd:
		return eb.And(a, b)
	case isa.OpOr:
		return eb.Or(a, b)
	case isa.OpXor:
		return eb.Xor(a, b)
	case isa.OpShl:
		return eb.Shl(a, b)
	case isa.OpLShr:
		return eb.LShr(a, b)
	case isa.OpAShr:
		return eb.AShr(a, b)
	case isa.OpEq:
		return eb.BoolToBV(eb.Eq(a, b), WordBits)
	case isa.OpNe:
		return eb.BoolToBV(eb.Ne(a, b), WordBits)
	case isa.OpUlt:
		return eb.BoolToBV(eb.Ult(a, b), WordBits)
	case isa.OpUle:
		return eb.BoolToBV(eb.Ule(a, b), WordBits)
	case isa.OpSlt:
		return eb.BoolToBV(eb.Slt(a, b), WordBits)
	case isa.OpSle:
		return eb.BoolToBV(eb.Sle(a, b), WordBits)
	default:
		panic("vm: not an ALU op: " + op.String())
	}
}

// branch resolves a conditional branch, forking the state when both
// directions are feasible. The original state takes the true direction;
// the sibling takes the false direction — fixed so that exploration order
// is deterministic and comparable across mapping algorithms. at is the
// branch's budget position.
func (s *State) branch(cond *expr.Expr, target, at int, h Hooks) error {
	if cond.IsTrue() {
		s.pc = target
		return nil
	}
	if cond.IsFalse() {
		s.pc++
		return nil
	}
	// Speculative path: fork both sides now and decide feasibility at the
	// next resolution barrier, running on down the true side until then.
	if s.ctx.Speculate {
		s.specBranch(cond, target, at)
		return nil
	}
	feasTrue, err := s.feasibleWith(cond)
	if err != nil {
		s.Kill(err)
		return err
	}
	notCond := s.ctx.Exprs.Not(cond)
	feasFalse, err := s.feasibleWith(notCond)
	if err != nil {
		s.Kill(err)
		return err
	}
	switch {
	case feasTrue && feasFalse:
		// The running state writes first and so keeps the arrays it
		// appends to; the sibling's first append copies its path condition.
		sibling := s.Fork()
		s.AddConstraint(cond)
		s.pc = target
		sibling.AddConstraint(notCond)
		sibling.pc++
		h.OnFork(s, sibling)
		s.own()
	case feasTrue:
		s.pc = target
	case feasFalse:
		s.pc++
	default:
		// The path condition itself became infeasible, which the engine's
		// invariants rule out; treat it as a dead state rather than panic.
		s.Kill(errors.New("vm: path condition infeasible at branch"))
	}
	return nil
}

// assert checks an assertion. If the condition can be false, a violation
// carrying the violation constraint is reported — the hooks solve its
// witness — and execution then continues on the true side if that is
// feasible, otherwise the state dies. Both sides are decided like a
// branch's, through feasibleWith.
func (s *State) assert(in *isa.Instr, now uint64, h Hooks) error {
	eb := s.ctx.Exprs
	cond := eb.Ne(s.regs[in.Ra], eb.Const(0, WordBits))
	if cond.IsTrue() {
		return nil
	}
	notCond := eb.Not(cond)
	canFail, err := s.feasibleWith(notCond)
	if err != nil {
		s.Kill(err)
		return err
	}
	if canFail {
		h.OnViolation(s, &Violation{
			Node:    s.node,
			Time:    now,
			Msg:     in.Sym,
			StateID: s.id,
			Cond:    notCond,
		})
		s.own()
	}
	feasTrue, err := s.feasibleWith(cond)
	if err != nil {
		s.Kill(err)
		return err
	}
	if !feasTrue {
		s.Kill(fmt.Errorf("%w: %q", ErrAssertFails, in.Sym))
		return nil
	}
	if canFail {
		s.AddConstraint(cond)
	}
	return nil
}

func (s *State) feasibleWith(c *expr.Expr) (bool, error) {
	if c.IsTrue() {
		return true, nil
	}
	if c.IsFalse() {
		return false, nil
	}
	return s.ctx.Solver.FeasibleWith(nil, s.pathCond, c)
}

func (s *State) concreteAddr(base *expr.Expr, off uint32) (uint32, error) {
	if !base.IsConst() {
		return 0, errors.New("vm: symbolic memory address")
	}
	return uint32(base.ConstVal()) + off, nil
}
