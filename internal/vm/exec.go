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
func (s *State) Run(now uint64, budget int, h Hooks) error {
	if budget <= 0 {
		budget = DefaultStepBudget
	}
	eb := s.ctx.Exprs
	var code *isa.ProgIR
	if s.ctx.compile {
		code = s.prog.IR()
	}
	for i := 0; i < budget; i++ {
		if s.status != StatusRunning {
			return nil
		}
		f := s.prog.Func(s.fn)
		if s.pc >= len(f.Instrs) {
			s.Kill(fmt.Errorf("vm: pc %d out of range in %s", s.pc, f.Name))
			return s.runErr
		}
		// Compiled-IR fast path: from a block leader, run the chain of
		// concretizable blocks control stays on (see fastpath.go) and skip
		// the per-instruction loop. A chain that hands off has stopped at
		// the leader of a block only the interpreter can execute.
		if code != nil && code.Funcs[s.fn].BlockIndex(s.pc) >= 0 {
			n, handoff := s.runFastChain(code, budget-i, now)
			if !handoff {
				if s.status != StatusRunning {
					return nil
				}
				i += n - 1
				continue
			}
			s.ctx.slowBlocks.Add(1)
			i += n
			f = s.prog.Func(s.fn)
		}
		in := &f.Instrs[s.pc]
		// Resolution barrier: an instruction whose effects escape the state
		// (a packet send, an assertion report) must not execute on an
		// unconfirmed path. Drain the speculative pipeline first; the state
		// comes back confirmed, rewound onto the false side, or dead.
		if s.ctx.spec != nil && (in.Op == isa.OpAssert || in.Op == isa.OpSend) {
			s.ctx.spec.OnSpecBarrier(s)
			if s.status != StatusRunning {
				return nil
			}
			if s.specRewound {
				s.ClearSpecRewound()
				continue
			}
		}
		s.steps++
		s.ctx.instrCount.Add(1)

		switch in.Op {
		case isa.OpNop:
			s.pc++

		case isa.OpMovI:
			s.regs[in.Rd] = eb.Const(uint64(in.Imm), WordBits)
			s.pc++

		case isa.OpMov:
			s.regs[in.Rd] = s.regs[in.Ra]
			s.pc++

		case isa.OpNot:
			s.regs[in.Rd] = eb.Not(s.regs[in.Ra])
			s.pc++

		case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpUDiv, isa.OpURem,
			isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpLShr, isa.OpAShr,
			isa.OpEq, isa.OpNe, isa.OpUlt, isa.OpUle, isa.OpSlt, isa.OpSle:
			a := s.regs[in.Ra]
			var b *expr.Expr
			if in.BImm {
				b = eb.Const(uint64(in.Imm), WordBits)
			} else {
				b = s.regs[in.Rb]
			}
			s.regs[in.Rd] = s.alu(in.Op, a, b)
			s.pc++

		case isa.OpJmp:
			s.pc = in.Target

		case isa.OpBrNZ, isa.OpBrZ:
			cond := eb.Ne(s.regs[in.Ra], s.ctx.zeroWord)
			if in.Op == isa.OpBrZ {
				cond = eb.Not(cond)
			}
			if err := s.branch(cond, in.Target, h); err != nil {
				return err
			}

		case isa.OpCall:
			s.frames = append(s.frames, frame{fn: s.fn, pc: s.pc + 1})
			s.fn = in.Fn
			s.pc = 0

		case isa.OpRet:
			if len(s.frames) == 0 {
				s.status = StatusIdle
				s.fn = -1
				return nil
			}
			top := s.frames[len(s.frames)-1]
			s.frames = s.frames[:len(s.frames)-1]
			s.fn, s.pc = top.fn, top.pc

		case isa.OpHalt:
			s.Halt()
			return nil

		case isa.OpLoad:
			addr, err := s.concreteAddr(s.regs[in.Ra], in.Imm)
			if err != nil {
				s.Kill(err)
				return err
			}
			s.regs[in.Rd] = s.loadWord(addr)
			s.pc++

		case isa.OpStore:
			addr, err := s.concreteAddr(s.regs[in.Ra], in.Imm)
			if err != nil {
				s.Kill(err)
				return err
			}
			s.mem.store(addr, s.regs[in.Rb].ID())
			s.pc++

		case isa.OpSym:
			name := fmt.Sprintf("%s_n%d_%d", in.Sym, s.node, s.symSeq)
			s.symSeq++
			if s.ctx.Replay != nil {
				v := eb.Const(s.ctx.Replay[name], int(in.Imm))
				s.regs[in.Rd] = eb.ZExt(v, WordBits)
			} else {
				v := eb.Var(name, int(in.Imm))
				s.regs[in.Rd] = eb.ZExt(v, WordBits)
			}
			s.pc++

		case isa.OpAssert:
			if err := s.assert(in, now, h); err != nil {
				return err
			}
			s.pc++

		case isa.OpAssume:
			cond := eb.Ne(s.regs[in.Ra], s.ctx.zeroWord)
			if sp := s.ctx.spec; sp != nil && !cond.IsTrue() && !cond.IsFalse() {
				if _, ok := s.impliedValue(cond); !ok {
					s.specAssume(sp, cond)
					continue
				}
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
			dst := s.regs[in.Ra]
			if !dst.IsConst() {
				err := errors.New("vm: symbolic packet destination")
				s.Kill(err)
				return err
			}
			buf, err := s.concreteAddr(s.regs[in.Rb], 0)
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
			s.pc++
			h.OnSend(s, uint32(dst.ConstVal()), payload)

		case isa.OpTimer:
			delay := s.regs[in.Ra]
			if !delay.IsConst() {
				err := errors.New("vm: symbolic timer delay")
				s.Kill(err)
				return err
			}
			s.PushEvent(Event{
				Time: now + delay.ConstVal(),
				Kind: EventTimer,
				Fn:   in.Fn,
				Arg:  s.regs[in.Rb],
			})
			s.pc++

		case isa.OpNodeID:
			s.regs[in.Rd] = eb.Const(uint64(s.node), WordBits)
			s.pc++

		case isa.OpTime:
			s.regs[in.Rd] = eb.Const(now&0xffffffff, WordBits)
			s.pc++

		case isa.OpPrint:
			s.trace = append(s.trace, TraceEntry{Time: now, Msg: in.Sym, Val: s.regs[in.Ra]})
			s.pc++

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
// is deterministic and comparable across mapping algorithms.
func (s *State) branch(cond *expr.Expr, target int, h Hooks) error {
	if cond.IsTrue() {
		s.pc = target
		return nil
	}
	if cond.IsFalse() {
		s.pc++
		return nil
	}
	// Speculative path: fork both sides now, let the solver pipeline decide
	// feasibility while execution continues on the true side. Conditions
	// decided by implied-value concretization stay on the synchronous path —
	// they never reach the solver anyway.
	if sp := s.ctx.spec; sp != nil {
		if _, ok := s.impliedValue(cond); !ok {
			s.specBranch(sp, cond, target)
			return nil
		}
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
		sibling := s.Fork()
		sibling.AddConstraint(notCond)
		sibling.pc++
		s.AddConstraint(cond)
		s.pc = target
		h.OnFork(s, sibling)
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
	// Implied-value concretization: when every variable of c is forced
	// to a constant by the path condition, c has exactly one value on
	// this path — the conjunction pathCond ∧ c is then feasible iff that
	// value is true (path conditions are kept feasible by construction),
	// with no solver query at all. This is what makes straight-line code
	// after a determining branch effectively concrete.
	if v, ok := s.impliedValue(c); ok {
		return v != 0, nil
	}
	return s.ctx.Solver.FeasibleWith(nil, s.pathCond, c)
}

// impliedValue evaluates c under the state's implied bindings, reporting
// ok=false when concretization is off or some variable of c is unbound.
func (s *State) impliedValue(c *expr.Expr) (uint64, bool) {
	if !s.ctx.concretize {
		return 0, false
	}
	if s.bound == nil {
		s.deriveBound()
	}
	if len(s.bound) == 0 {
		return 0, false
	}
	v, ok := expr.EvalBound(c, s.bound)
	if ok {
		s.ctx.qo.NoteConcretizedRead()
	}
	return v, ok
}

func (s *State) concreteAddr(base *expr.Expr, off uint32) (uint32, error) {
	if !base.IsConst() {
		return 0, errors.New("vm: symbolic memory address")
	}
	return uint32(base.ConstVal()) + off, nil
}
