package expr

import (
	"sort"
	"strconv"
	"strings"
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
	return EvalMemo(e, env, make(map[*Expr]uint64))
}

// EvalMemo is Eval over a memo table the caller owns, so that several
// expressions evaluated under one env — the constraints of a path
// condition — share their common subterms and one allocation. Every entry
// of memo must have been computed under env: clear it before evaluating
// under another.
func EvalMemo(e *Expr, env Env, memo map[*Expr]uint64) uint64 {
	return evalMemo(e, func(v *Expr) uint64 { return env[v.name] }, memo)
}

// evalMemo evaluates e with variable values supplied by look (the result
// is masked to the variable's width here, so lookups may return un-masked
// integers). Sharing the operator semantics between Eval and EvalBound
// keeps the two evaluators from drifting apart.
func evalMemo(e *Expr, look func(*Expr) uint64, memo map[*Expr]uint64) uint64 {
	if v, ok := memo[e]; ok {
		return v
	}
	var v uint64
	switch e.kind {
	case KindConst:
		v = e.val
	case KindVar:
		v = look(e) & mask(e.width)
	case KindAdd:
		v = evalMemo(e.a, look, memo) + evalMemo(e.b, look, memo)
	case KindSub:
		v = evalMemo(e.a, look, memo) - evalMemo(e.b, look, memo)
	case KindMul:
		v = evalMemo(e.a, look, memo) * evalMemo(e.b, look, memo)
	case KindUDiv:
		d := evalMemo(e.b, look, memo)
		if d == 0 {
			v = mask(e.width)
		} else {
			v = evalMemo(e.a, look, memo) / d
		}
	case KindURem:
		d := evalMemo(e.b, look, memo)
		if d == 0 {
			v = evalMemo(e.a, look, memo)
		} else {
			v = evalMemo(e.a, look, memo) % d
		}
	case KindAnd:
		v = evalMemo(e.a, look, memo) & evalMemo(e.b, look, memo)
	case KindOr:
		v = evalMemo(e.a, look, memo) | evalMemo(e.b, look, memo)
	case KindXor:
		v = evalMemo(e.a, look, memo) ^ evalMemo(e.b, look, memo)
	case KindNot:
		v = ^evalMemo(e.a, look, memo)
	case KindShl:
		s := evalMemo(e.b, look, memo)
		if s >= uint64(e.width) {
			v = 0
		} else {
			v = evalMemo(e.a, look, memo) << s
		}
	case KindLShr:
		s := evalMemo(e.b, look, memo)
		if s >= uint64(e.width) {
			v = 0
		} else {
			v = evalMemo(e.a, look, memo) >> s
		}
	case KindAShr:
		s := evalMemo(e.b, look, memo)
		sx := int64(signExtend(evalMemo(e.a, look, memo), e.width))
		if s >= uint64(e.width) {
			s = uint64(e.width) - 1
		}
		v = uint64(sx >> s)
	case KindEq:
		v = boolBit(evalMemo(e.a, look, memo) == evalMemo(e.b, look, memo))
	case KindUlt:
		v = boolBit(evalMemo(e.a, look, memo) < evalMemo(e.b, look, memo))
	case KindUle:
		v = boolBit(evalMemo(e.a, look, memo) <= evalMemo(e.b, look, memo))
	case KindSlt:
		w := e.a.width
		v = boolBit(int64(signExtend(evalMemo(e.a, look, memo), w)) <
			int64(signExtend(evalMemo(e.b, look, memo), w)))
	case KindSle:
		w := e.a.width
		v = boolBit(int64(signExtend(evalMemo(e.a, look, memo), w)) <=
			int64(signExtend(evalMemo(e.b, look, memo), w)))
	case KindIte:
		if evalMemo(e.a, look, memo) != 0 {
			v = evalMemo(e.b, look, memo)
		} else {
			v = evalMemo(e.c, look, memo)
		}
	case KindZExt:
		v = evalMemo(e.a, look, memo)
	case KindSExt:
		v = signExtend(evalMemo(e.a, look, memo), e.a.width)
	case KindTrunc:
		v = evalMemo(e.a, look, memo)
	default:
		panic("expr: Eval of invalid kind " + e.kind.String())
	}
	v &= mask(e.width)
	memo[e] = v
	return v
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// CollectVars appends every distinct variable reachable from e to dst and
// returns the extended slice, ordered by first encounter in a left-to-right
// depth-first walk.
func CollectVars(e *Expr, dst []*Expr) []*Expr {
	seen := make(map[*Expr]bool)
	for _, v := range dst {
		seen[v] = true
	}
	visited := make(map[*Expr]bool)
	var walk func(n *Expr)
	walk = func(n *Expr) {
		if n == nil || visited[n] {
			return
		}
		visited[n] = true
		if n.kind == KindVar && !seen[n] {
			seen[n] = true
			dst = append(dst, n)
			return
		}
		walk(n.a)
		walk(n.b)
		walk(n.c)
	}
	walk(e)
	return dst
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
