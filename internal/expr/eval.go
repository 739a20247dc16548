package expr

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Env maps variable names to concrete values for evaluation. Values are
// truncated to the variable's width on lookup, so callers may store
// un-masked integers.
type Env map[string]uint64

// Eval computes the concrete value of e under env. Unbound variables
// evaluate to 0, matching the solver's convention that a model omits
// don't-care inputs. The result is masked to e's width.
//
// Eval is the ground-truth oracle for the bit-blasting solver: property
// tests check that every satisfying model the solver returns makes the
// query evaluate to true.
func Eval(e *Expr, env Env) uint64 {
	ev := evaluators.Get().(*Evaluator)
	ev.Reset()
	ev.env = env
	v := ev.Eval(e)
	ev.env = nil
	evaluators.Put(ev)
	return v
}

// evaluators recycles the Evaluators of Eval and EvalBound, so a call
// allocates nothing once its pooled evaluator has grown to the Builder.
var evaluators = sync.Pool{New: func() any { return new(Evaluator) }}

// Evaluator computes concrete values of expressions under one assignment
// at a time, memoising every node it evaluates: several expressions
// evaluated under one assignment — the constraints of a path condition —
// share their common subterms. The memo and the bindings are arrays
// indexed by node id and variable id, stamped with an epoch, so Reset
// forgets both in O(1) and an Evaluator is reused across assignments
// without clearing or allocating. It is the one evaluator of the package:
// Eval and EvalBound are thin callers of it.
//
// The zero Evaluator is ready once Reset starts its first assignment.
// Between two Resets every expression must come from one Builder; an
// Evaluator is not safe for concurrent use.
type Evaluator struct {
	memo stamped // node id → value
	vars stamped // variable id → bound value
	// env, when non-nil, supplies variables by name instead of vars (Eval).
	env Env
}

// stamped is an array indexed by a dense id whose entries count only when
// stamped with the current epoch.
type stamped struct {
	epoch uint32
	slots []stampedSlot
}

type stampedSlot struct {
	epoch uint32
	val   uint64
}

// reset invalidates every entry by moving to the next epoch. When the
// epoch wraps, entries stamped long ago could match again, so they are
// cleared.
func (a *stamped) reset() {
	a.epoch++
	if a.epoch == 0 {
		clear(a.slots)
		a.epoch = 1
	}
}

// fit makes id a valid index.
func (a *stamped) fit(id uint32) {
	if int(id) >= len(a.slots) {
		a.slots = append(a.slots, make([]stampedSlot, int(id)+1-len(a.slots))...)
		a.slots = a.slots[:cap(a.slots)]
	}
}

func (a *stamped) get(id uint32) (uint64, bool) {
	if int(id) < len(a.slots) && a.slots[id].epoch == a.epoch {
		return a.slots[id].val, true
	}
	return 0, false
}

func (a *stamped) set(id uint32, v uint64) {
	a.fit(id)
	a.slots[id] = stampedSlot{epoch: a.epoch, val: v}
}

// Reset starts a new assignment: every variable is unbound and nothing is
// memoised.
func (ev *Evaluator) Reset() {
	ev.memo.reset()
	ev.vars.reset()
}

// Bind sets variable id to v in the current assignment. v may carry bits
// above the variable's width; they are masked off when it is read.
func (ev *Evaluator) Bind(id uint32, v uint64) { ev.vars.set(id, v) }

// Bound returns variable id's value in the current assignment, and false
// when Bind has not set it since the last Reset.
func (ev *Evaluator) Bound(id uint32) (uint64, bool) { return ev.vars.get(id) }

// Eval returns the value of e under the current assignment, masked to e's
// width. Unbound variables evaluate to 0.
func (ev *Evaluator) Eval(e *Expr) uint64 {
	// Operands are interned before their parents, so no node below e has
	// a larger id: one fit covers the whole DAG.
	ev.memo.fit(e.id)
	return ev.eval(e)
}

// eval is the operator switch of the package.
func (ev *Evaluator) eval(e *Expr) uint64 {
	if e.kind == KindConst {
		return e.val
	}
	if slot := ev.memo.slots[e.id]; slot.epoch == ev.memo.epoch {
		return slot.val
	}
	var v uint64
	switch e.kind {
	case KindVar:
		if ev.env != nil {
			v = ev.env[e.name]
		} else {
			v, _ = ev.vars.get(uint32(e.val))
		}
	case KindAdd:
		v = ev.eval(e.a) + ev.eval(e.b)
	case KindSub:
		v = ev.eval(e.a) - ev.eval(e.b)
	case KindMul:
		v = ev.eval(e.a) * ev.eval(e.b)
	case KindUDiv:
		d := ev.eval(e.b)
		if d == 0 {
			v = mask(e.width)
		} else {
			v = ev.eval(e.a) / d
		}
	case KindURem:
		d := ev.eval(e.b)
		if d == 0 {
			v = ev.eval(e.a)
		} else {
			v = ev.eval(e.a) % d
		}
	case KindAnd:
		v = ev.eval(e.a) & ev.eval(e.b)
	case KindOr:
		v = ev.eval(e.a) | ev.eval(e.b)
	case KindXor:
		v = ev.eval(e.a) ^ ev.eval(e.b)
	case KindNot:
		v = ^ev.eval(e.a)
	case KindShl:
		s := ev.eval(e.b)
		if s >= uint64(e.width) {
			v = 0
		} else {
			v = ev.eval(e.a) << s
		}
	case KindLShr:
		s := ev.eval(e.b)
		if s >= uint64(e.width) {
			v = 0
		} else {
			v = ev.eval(e.a) >> s
		}
	case KindAShr:
		s := ev.eval(e.b)
		sx := int64(signExtend(ev.eval(e.a), e.width))
		if s >= uint64(e.width) {
			s = uint64(e.width) - 1
		}
		v = uint64(sx >> s)
	case KindEq:
		v = boolBit(ev.eval(e.a) == ev.eval(e.b))
	case KindUlt:
		v = boolBit(ev.eval(e.a) < ev.eval(e.b))
	case KindUle:
		v = boolBit(ev.eval(e.a) <= ev.eval(e.b))
	case KindSlt:
		w := e.a.width
		v = boolBit(int64(signExtend(ev.eval(e.a), w)) < int64(signExtend(ev.eval(e.b), w)))
	case KindSle:
		w := e.a.width
		v = boolBit(int64(signExtend(ev.eval(e.a), w)) <= int64(signExtend(ev.eval(e.b), w)))
	case KindIte:
		if ev.eval(e.a) != 0 {
			v = ev.eval(e.b)
		} else {
			v = ev.eval(e.c)
		}
	case KindZExt:
		v = ev.eval(e.a)
	case KindSExt:
		v = signExtend(ev.eval(e.a), e.a.width)
	case KindTrunc:
		v = ev.eval(e.a)
	default:
		panic("expr: Eval of invalid kind " + e.kind.String())
	}
	v &= mask(e.width)
	ev.memo.slots[e.id] = stampedSlot{epoch: ev.memo.epoch, val: v}
	return v
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// String renders e as a compact s-expression, e.g. "(add x (const 5 w32))".
// It is intended for diagnostics and test failure messages, not parsing.
func (e *Expr) String() string {
	var sb strings.Builder
	writeExpr(&sb, e, 0)
	return sb.String()
}

const maxPrintDepth = 24

func writeExpr(sb *strings.Builder, e *Expr, depth int) {
	if e == nil {
		sb.WriteString("<nil>")
		return
	}
	if depth > maxPrintDepth {
		sb.WriteString("…")
		return
	}
	switch e.kind {
	case KindConst:
		sb.WriteString(strconv.FormatUint(e.val, 10))
		sb.WriteString(":w")
		sb.WriteString(strconv.Itoa(int(e.width)))
	case KindVar:
		sb.WriteString(e.name)
	default:
		sb.WriteByte('(')
		sb.WriteString(e.kind.String())
		for i := 0; i < 3; i++ {
			arg := e.Arg(i)
			if arg == nil {
				break
			}
			sb.WriteByte(' ')
			writeExpr(sb, arg, depth+1)
		}
		if e.kind == KindZExt || e.kind == KindSExt || e.kind == KindTrunc {
			sb.WriteString(" w")
			sb.WriteString(strconv.Itoa(int(e.width)))
		}
		sb.WriteByte(')')
	}
}

// SortByName orders variables by name; useful for deterministic test-case
// output.
func SortByName(vars []*Expr) {
	sort.Slice(vars, func(i, j int) bool { return vars[i].name < vars[j].name })
}
