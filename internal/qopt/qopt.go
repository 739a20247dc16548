// Package qopt implements the query-optimization pipeline that sits
// between path-condition construction and the solver. Three independent
// stages shrink a query before it reaches Tseitin encoding and the CDCL
// core:
//
//  1. Independence slicing (Slice): group the constraint set into
//     variable-connected factor groups (expr.Components) and keep only
//     the factors transitively connected to the query expression. The
//     dropped factors are feasibility-irrelevant by construction — every
//     prefix constraint was feasibility-checked when it joined the path
//     condition, so a variable-disjoint factor is satisfiable on its
//     own and SAT(A ∧ B) = SAT(A) ∧ SAT(B) for disjoint A, B.
//  2. Algebraic rewriting (Rewrite / OptimizeSet): a fixpoint rewrite
//     pass — constant propagation through comparisons, x==c
//     substitution across the conjunction, double-negation/De Morgan,
//     strength reduction of power-of-two multiplies/divides/mods, ITE
//     folding — that runs before encoding so the persistent blast
//     context sees strictly fewer gates. Every rule is an equivalence:
//     the rewritten conjunction has exactly the models of the original.
//  3. Implied-value concretization: helpers (ImpliedBinding plus
//     expr.EvalBound) that let the VM record variables forced to
//     constants by the path condition and decide later reads and branch
//     conditions concretely, without any solver query.
//
// Optimizer state is derived from interned expressions and is never
// serialized: checkpoints stay bit-identical, and a resumed run rebuilds
// rewrite memos on demand. The stages run together or not at all: a run
// without an optimizer (sim.Layers.NoQopt) is the first triage step when a
// soundness bug is suspected.
package qopt

import (
	"sync"
	"sync/atomic"

	"sde/internal/expr"
)

// Optimizer carries the per-run rewrite memos and activity counters. One
// Optimizer serves one expr.Builder (and hence one solver); it is safe
// for concurrent use.
type Optimizer struct {
	eb *expr.Builder

	mu    sync.Mutex
	rw    map[*expr.Expr]*expr.Expr // constraint → fixpoint rewrite
	nodes map[*expr.Expr]int        // DAG node-count memo

	rewriteHits      atomic.Int64
	gatesElided      atomic.Int64
	concretizedReads atomic.Int64
}

// New returns an Optimizer building rewritten expressions with eb. All
// constraints passed to the Optimizer must come from eb.
func New(eb *expr.Builder) *Optimizer {
	return &Optimizer{
		eb:    eb,
		rw:    make(map[*expr.Expr]*expr.Expr, 256),
		nodes: make(map[*expr.Expr]int, 256),
	}
}

// RewriteHits returns how many constraints a rewrite pass changed.
func (o *Optimizer) RewriteHits() int64 { return o.rewriteHits.Load() }

// GatesElided estimates the encoding work avoided, in expression DAG
// nodes removed from queries by rewriting and slicing (each node costs a
// handful of Tseitin gates to encode).
func (o *Optimizer) GatesElided() int64 { return o.gatesElided.Load() }

// ConcretizedReads returns how many reads and branch decisions the VM
// decided concretely from implied bindings instead of querying the
// solver.
func (o *Optimizer) ConcretizedReads() int64 { return o.concretizedReads.Load() }

// NoteConcretizedRead records one concretized read or branch decision.
func (o *Optimizer) NoteConcretizedRead() { o.concretizedReads.Add(1) }

// --- stage 1: independence slicing --------------------------------------

// Slice partitions constraints into variable-connected factor groups and
// returns the constraints transitively connected to query (kept, in
// input order) plus the disconnected factor groups (dropped). A
// constraint without variables is kept conservatively.
func (o *Optimizer) Slice(constraints []*expr.Expr, query *expr.Expr) (kept []*expr.Expr, dropped [][]*expr.Expr) {
	n := len(constraints)
	if n == 0 || len(query.VarIDs()) == 0 {
		return constraints, nil
	}
	// Components over the constraints plus the query (index n). A label
	// is at most its first member's index, so a constraint's is below n.
	labels := expr.Components(append(constraints[:n:n], query))
	var byLabel [][]*expr.Expr // dropped constraints, by component label
	for i, c := range constraints {
		l := labels[i]
		if len(c.VarIDs()) == 0 || l == labels[n] {
			kept = append(kept, c)
			continue
		}
		if byLabel == nil {
			byLabel = make([][]*expr.Expr, n)
		}
		byLabel[l] = append(byLabel[l], c)
	}
	for _, g := range byLabel {
		if g != nil {
			dropped = append(dropped, g)
		}
	}
	if dropped == nil {
		return constraints, nil
	}
	return kept, dropped
}

// NoteSliced records the estimated encoding work avoided by dropping the
// given factor groups from one query.
func (o *Optimizer) NoteSliced(dropped [][]*expr.Expr) {
	var n int
	for _, group := range dropped {
		for _, c := range group {
			n += o.NodeCount(c)
		}
	}
	o.gatesElided.Add(int64(n))
}

// NodeCount returns the number of distinct DAG nodes in e, memoised
// across calls.
func (o *Optimizer) NodeCount(e *expr.Expr) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.nodeCountLocked(e)
}

func (o *Optimizer) nodeCountLocked(e *expr.Expr) int {
	if n, ok := o.nodes[e]; ok {
		return n
	}
	seen := make(map[*expr.Expr]bool)
	var walk func(*expr.Expr) int
	walk = func(e *expr.Expr) int {
		if e == nil || seen[e] {
			return 0
		}
		seen[e] = true
		return 1 + walk(e.Arg(0)) + walk(e.Arg(1)) + walk(e.Arg(2))
	}
	n := walk(e)
	o.nodes[e] = n
	return n
}

// --- stage 2: algebraic rewriting ---------------------------------------

// maxRewriteRounds bounds the per-constraint fixpoint iteration; the rule
// set strictly shrinks expressions, so this is a safety net, not a tuning
// knob.
const maxRewriteRounds = 8

// Rewrite applies the algebraic rewrite rules to one constraint until a
// fixpoint, memoised per constraint. The result is equivalent to c (same
// value under every assignment).
func (o *Optimizer) Rewrite(c *expr.Expr) *expr.Expr {
	o.mu.Lock()
	if out, ok := o.rw[c]; ok {
		o.mu.Unlock()
		return out
	}
	o.mu.Unlock()

	out := c
	for i := 0; i < maxRewriteRounds; i++ {
		next := o.rewriteOnce(out)
		if next == out {
			break
		}
		out = next
	}
	o.mu.Lock()
	o.rw[c] = out
	o.rw[out] = out
	if out != c {
		delta := o.nodeCountLocked(c) - o.nodeCountLocked(out)
		o.mu.Unlock()
		o.rewriteHits.Add(1)
		if delta > 0 {
			o.gatesElided.Add(int64(delta))
		}
		return out
	}
	o.mu.Unlock()
	return out
}

// rewriteOnce rebuilds e bottom-up through the Builder (re-triggering its
// constant folding and canonicalisation) and applies one round of the
// local rules at every node.
func (o *Optimizer) rewriteOnce(e *expr.Expr) *expr.Expr {
	memo := make(map[*expr.Expr]*expr.Expr)
	return o.walkRewrite(e, memo)
}

func (o *Optimizer) walkRewrite(e *expr.Expr, memo map[*expr.Expr]*expr.Expr) *expr.Expr {
	if out, ok := memo[e]; ok {
		return out
	}
	out := e
	if e.Arg(0) != nil {
		a := o.walkRewrite(e.Arg(0), memo)
		var b, c *expr.Expr
		if e.Arg(1) != nil {
			b = o.walkRewrite(e.Arg(1), memo)
		}
		if e.Arg(2) != nil {
			c = o.walkRewrite(e.Arg(2), memo)
		}
		out = o.rebuild(e, a, b, c)
	}
	out = o.peephole(out)
	memo[e] = out
	return out
}

// rebuild reconstructs a node of e's kind over new operands via the
// Builder, reusing e when nothing changed.
func (o *Optimizer) rebuild(e, a, b, c *expr.Expr) *expr.Expr {
	if a == e.Arg(0) && b == e.Arg(1) && c == e.Arg(2) {
		return e
	}
	eb := o.eb
	switch e.Kind() {
	case expr.KindAdd:
		return eb.Add(a, b)
	case expr.KindSub:
		return eb.Sub(a, b)
	case expr.KindMul:
		return eb.Mul(a, b)
	case expr.KindUDiv:
		return eb.UDiv(a, b)
	case expr.KindURem:
		return eb.URem(a, b)
	case expr.KindAnd:
		return eb.And(a, b)
	case expr.KindOr:
		return eb.Or(a, b)
	case expr.KindXor:
		return eb.Xor(a, b)
	case expr.KindNot:
		return eb.Not(a)
	case expr.KindShl:
		return eb.Shl(a, b)
	case expr.KindLShr:
		return eb.LShr(a, b)
	case expr.KindAShr:
		return eb.AShr(a, b)
	case expr.KindEq:
		return eb.Eq(a, b)
	case expr.KindUlt:
		return eb.Ult(a, b)
	case expr.KindUle:
		return eb.Ule(a, b)
	case expr.KindSlt:
		return eb.Slt(a, b)
	case expr.KindSle:
		return eb.Sle(a, b)
	case expr.KindIte:
		return eb.Ite(a, b, c)
	case expr.KindZExt:
		return eb.ZExt(a, e.Width())
	case expr.KindSExt:
		return eb.SExt(a, e.Width())
	case expr.KindTrunc:
		return eb.Trunc(a, e.Width())
	default:
		return e
	}
}

// peephole applies the local rewrite rules at one node. Every rule is an
// equivalence (verified by FuzzRewriteEquivalence) and strictly reduces
// either node count or encoding cost. The Builder canonicalises
// commutative operands constant-first, which the patterns rely on.
func (o *Optimizer) peephole(e *expr.Expr) *expr.Expr {
	eb := o.eb
	w := e.Width()
	switch e.Kind() {
	case expr.KindNot:
		a := e.Arg(0)
		switch a.Kind() {
		case expr.KindUlt:
			// ¬(x < y) = y ≤ x
			return eb.Ule(a.Arg(1), a.Arg(0))
		case expr.KindUle:
			// ¬(x ≤ y) = y < x
			return eb.Ult(a.Arg(1), a.Arg(0))
		case expr.KindSlt:
			return eb.Sle(a.Arg(1), a.Arg(0))
		case expr.KindSle:
			return eb.Slt(a.Arg(1), a.Arg(0))
		case expr.KindAnd:
			// De Morgan, only in the direction that sheds negations:
			// ¬(¬x ∧ ¬y) = x ∨ y (bitwise, any width).
			if a.Arg(0).Kind() == expr.KindNot && a.Arg(1).Kind() == expr.KindNot {
				return eb.Or(a.Arg(0).Arg(0), a.Arg(1).Arg(0))
			}
		case expr.KindOr:
			if a.Arg(0).Kind() == expr.KindNot && a.Arg(1).Kind() == expr.KindNot {
				return eb.And(a.Arg(0).Arg(0), a.Arg(1).Arg(0))
			}
		}
	case expr.KindMul:
		// Strength reduction: a power-of-two multiplier becomes a shift
		// (a bit rewiring instead of a partial-product array).
		if c := e.Arg(0); c.IsConst() && isPow2(c.ConstVal()) {
			return eb.Shl(e.Arg(1), eb.Const(log2(c.ConstVal()), w))
		}
	case expr.KindUDiv:
		if c := e.Arg(1); c.IsConst() && isPow2(c.ConstVal()) {
			return eb.LShr(e.Arg(0), eb.Const(log2(c.ConstVal()), w))
		}
	case expr.KindURem:
		if c := e.Arg(1); c.IsConst() && isPow2(c.ConstVal()) {
			return eb.And(e.Arg(0), eb.Const(c.ConstVal()-1, w))
		}
	case expr.KindUlt:
		// x < 1 = (x == 0): an equality chain beats a comparator.
		if c := e.Arg(1); c.IsConst() && c.ConstVal() == 1 {
			return eb.Eq(eb.Const(0, e.Arg(0).Width()), e.Arg(0))
		}
	case expr.KindEq:
		// Constant propagation through invertible operators:
		// (c == c2+x) → (c-c2 == x), (c == c2^x) → (c^c2 == x),
		// (c == ¬x) → (¬c == x).
		if c := e.Arg(0); c.IsConst() {
			y := e.Arg(1)
			yw := y.Width()
			switch {
			case y.Kind() == expr.KindAdd && y.Arg(0).IsConst():
				return eb.Eq(eb.Const(c.ConstVal()-y.Arg(0).ConstVal(), yw), y.Arg(1))
			case y.Kind() == expr.KindXor && y.Arg(0).IsConst():
				return eb.Eq(eb.Const(c.ConstVal()^y.Arg(0).ConstVal(), yw), y.Arg(1))
			case y.Kind() == expr.KindNot:
				return eb.Eq(eb.Const(^c.ConstVal(), yw), y.Arg(0))
			case y.Kind() == expr.KindIte &&
				y.Arg(1).IsConst() && y.Arg(2).IsConst():
				// (k == ite(d, c1, c2)) with constant arms — the shape a
				// compare against an oversized arithmetic shift takes —
				// collapses to a predicate on the ite condition alone: d,
				// ¬d, or false. (c1 == c2 cannot reach here: hash-consing makes
				// equal constants one node and Builder.Ite folds t==f.)
				switch {
				case c.ConstVal() == y.Arg(1).ConstVal():
					return y.Arg(0)
				case c.ConstVal() == y.Arg(2).ConstVal():
					return eb.Not(y.Arg(0))
				default:
					return eb.False()
				}
			}
		}
	case expr.KindIte:
		// Nested ites that share a condition. (Constant conditions and
		// equal arms never reach here — Builder.Ite folds those at
		// construction.)
		cond, tv, fv := e.Arg(0), e.Arg(1), e.Arg(2)
		if cond.Kind() == expr.KindNot {
			// ite(¬d, a, b) = ite(d, b, a): sheds the negation.
			return eb.Ite(cond.Arg(0), fv, tv)
		}
		// Same condition nested in an arm: the inner ite is decided.
		// ite(d, ite(d, a, b), c) = ite(d, a, c) and symmetrically.
		if tv.Kind() == expr.KindIte && tv.Arg(0) == cond {
			return eb.Ite(cond, tv.Arg(1), fv)
		}
		if fv.Kind() == expr.KindIte && fv.Arg(0) == cond {
			return eb.Ite(cond, tv, fv.Arg(2))
		}
	}
	return e
}

func isPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

func log2(v uint64) uint64 {
	var n uint64
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// OptimizeSet rewrites a conjunction of constraints: each constraint goes
// through Rewrite, constants forced by one constraint (x==c, v, ¬v) are
// substituted into the others, and constraints reduced to true are
// dropped. The returned set's conjunction is equivalent to the input's —
// defining constraints are kept, so no model is lost or gained.
//
// unsat is true when some constraint reduced to constant false, deciding
// the whole conjunction.
func (o *Optimizer) OptimizeSet(active []*expr.Expr) (out []*expr.Expr, unsat bool) {
	out = make([]*expr.Expr, 0, len(active))
	for _, c := range active {
		r := o.Rewrite(c)
		if r.IsFalse() {
			return nil, true
		}
		if r.IsTrue() {
			continue
		}
		out = append(out, r)
	}

	for round := 0; round < maxRewriteRounds; round++ {
		bind, defines := impliedBindings(out)
		if len(bind) == 0 {
			return out, false
		}
		changedRound := false
		next := out[:0]
		for i, c := range out {
			sub := o.substitute(c, bind, defines[i])
			if sub != c {
				sub = o.Rewrite(sub)
				changedRound = true
				o.rewriteHits.Add(1)
				if d := o.NodeCount(c) - o.NodeCount(sub); d > 0 {
					o.gatesElided.Add(int64(d))
				}
			}
			if sub.IsFalse() {
				return nil, true
			}
			if sub.IsTrue() {
				continue
			}
			next = append(next, sub)
		}
		out = next
		if !changedRound {
			break
		}
	}
	return out, false
}

// impliedBindings scans a constraint set for constraints that force a
// variable to a constant and returns the binding map (variable node →
// constant value) plus, per constraint index, the variable it defines
// (nil for non-defining constraints). A constraint must keep defining its
// own variable — substituting a binding into its own definition would
// drop the model restriction — so substitution excludes it.
func impliedBindings(constraints []*expr.Expr) (map[*expr.Expr]uint64, []*expr.Expr) {
	var bind map[*expr.Expr]uint64
	defines := make([]*expr.Expr, len(constraints))
	for i, c := range constraints {
		v, val, ok := ImpliedBinding(c)
		if !ok {
			continue
		}
		if bind == nil {
			bind = make(map[*expr.Expr]uint64, 4)
		}
		if _, dup := bind[v]; !dup {
			bind[v] = val
		}
		defines[i] = v
	}
	return bind, defines
}

// ImpliedBinding reports the variable binding a single constraint forces:
// Eq(const, v) binds v to the constant (the Builder canonicalises
// constants to the left), a bare 1-bit variable binds it to 1, and its
// negation binds it to 0.
func ImpliedBinding(c *expr.Expr) (v *expr.Expr, val uint64, ok bool) {
	switch {
	case c.Kind() == expr.KindVar:
		return c, 1, true
	case c.Kind() == expr.KindNot && c.Arg(0).Kind() == expr.KindVar:
		return c.Arg(0), 0, true
	case c.Kind() == expr.KindEq && c.Arg(0).IsConst() && c.Arg(1).Kind() == expr.KindVar:
		return c.Arg(1), c.Arg(0).ConstVal(), true
	}
	return nil, 0, false
}

// substitute replaces bound variables in c with their constants, skipping
// the variable c itself defines. Only constraints that mention a bound
// variable are rebuilt.
func (o *Optimizer) substitute(c *expr.Expr, bind map[*expr.Expr]uint64, defines *expr.Expr) *expr.Expr {
	touches := false
	for v := range bind {
		if v != defines && c.HasVar(v.VarID()) {
			touches = true
			break
		}
	}
	if !touches {
		return c
	}
	memo := make(map[*expr.Expr]*expr.Expr)
	var walk func(*expr.Expr) *expr.Expr
	walk = func(e *expr.Expr) *expr.Expr {
		if out, ok := memo[e]; ok {
			return out
		}
		out := e
		if e.Kind() == expr.KindVar {
			if val, ok := bind[e]; ok && e != defines {
				out = o.eb.Const(val, e.Width())
			}
		} else if e.Arg(0) != nil {
			a := walk(e.Arg(0))
			var b, cc *expr.Expr
			if e.Arg(1) != nil {
				b = walk(e.Arg(1))
			}
			if e.Arg(2) != nil {
				cc = walk(e.Arg(2))
			}
			out = o.rebuild(e, a, b, cc)
		}
		memo[e] = out
		return out
	}
	return walk(c)
}
