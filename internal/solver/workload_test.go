package solver

import (
	"fmt"

	"sde/internal/expr"
)

// PrefixQuery is one step of a prefix-extension query stream: decide
// Prefix ∧ Extra. When Take is set, Extra joins the path condition after
// the query, so later entries' prefixes extend this one — exactly the
// query stream a symbolic-execution branch loop emits.
type PrefixQuery struct {
	Prefix []*expr.Expr
	Extra  *expr.Expr
	Take   bool
}

// PrefixExtensionQueries builds the canonical exploration workload shared
// by BenchmarkPrefixExtension and the incremental-session tests: a path
// condition grows one branch constraint at a time, and both branch
// directions are queried at each step. Every step introduces a fresh multiplier circuit
// over the shared symbolic words, so a from-scratch solver re-encodes
// O(depth²) multipliers over the stream while a persistent blast context
// encodes O(depth); the probe queries (the untaken directions) force real
// CDCL search whose learned clauses only an incremental instance can
// reuse.
func PrefixExtensionQueries(eb *expr.Builder, depth int) []PrefixQuery {
	const w = 12
	x := eb.Var("x", w)
	y := eb.Var("y", w)
	var pc []*expr.Expr
	out := make([]PrefixQuery, 0, 2*depth)
	for i := 0; i < depth; i++ {
		t := eb.Mul(eb.Add(x, eb.Const(uint64(i+1), w)), y)
		bound := eb.Const(uint64(4000-13*i), w)
		c := eb.Ult(t, bound)
		out = append(out, PrefixQuery{Prefix: pc, Extra: eb.Not(c)})
		out = append(out, PrefixQuery{Prefix: pc, Extra: c, Take: true})
		pc = append(pc, c)
	}
	return out
}

// RunicastPrefixQueries models the query stream of the Rime runicast
// scenario: pairs concurrent sender→receiver sessions, each advancing a
// 12-bit sequence number through depth retransmission rounds (depth ≤ 24
// keeps every taken prefix jointly satisfiable at seq=0). Each round of
// pair i bounds the sequence number's slot inside the 32-tick
// retransmission window — (seqᵢ + round) mod 32 — or, on alternating
// rounds, its backoff epoch (seqᵢ + 16·round) ÷ 16, and then forks a
// fresh 1-bit packet-drop decision variable into the path condition.
//
// The stream is the query-optimizer's acceptance workload, and each
// pipeline stage has a distinct target in it:
//   - the window and epoch terms divide by the constant power-of-two
//     window width, which strength-reduces to a mask / constant shift.
//     Unrewritten, each lands in the blaster's restoring-division loop —
//     ~5·w² gates of comparators and conditional subtractors per
//     constraint — where the rewritten mask costs none, and the probe
//     queries' negated comparisons rewrite to the opposite comparison;
//   - the drop literals and the other pairs' bounds are variable-disjoint
//     from the queried pair, so independence slicing cuts each query to
//     the one pair it concerns;
//   - the drop literals mixed into the prefix keep the whole-prefix
//     literal scan from short-circuiting the stream, exactly as in the
//     real scenario where boolean failure pins and arithmetic sequence
//     bounds interleave.
func RunicastPrefixQueries(eb *expr.Builder, pairs, depth int) []PrefixQuery {
	const w = 12
	const window = 32 // retransmission window in ticks, a power of two
	seqs := make([]*expr.Expr, pairs)
	for i := range seqs {
		seqs[i] = eb.Var(fmt.Sprintf("seq%d", i), w)
	}
	var pc []*expr.Expr
	out := make([]PrefixQuery, 0, 3*pairs*depth)
	for round := 0; round < depth; round++ {
		for i := 0; i < pairs; i++ {
			var c *expr.Expr
			if round%2 == 0 {
				// Slot constraint: the retransmission lands inside the
				// window, never on its guard slot.
				slot := eb.URem(eb.Add(seqs[i], eb.Const(uint64(round+1), w)), eb.Const(window, w))
				c = eb.Ult(slot, eb.Const(window-1, w))
			} else {
				// Epoch constraint: the backoff epoch stays under the
				// round's deadline.
				epoch := eb.UDiv(eb.Add(seqs[i], eb.Const(uint64(16*(round+1)), w)), eb.Const(16, w))
				c = eb.Ult(epoch, eb.Const(uint64(200-2*round-i), w))
			}
			out = append(out, PrefixQuery{Prefix: pc, Extra: eb.Not(c)})
			out = append(out, PrefixQuery{Prefix: pc, Extra: c, Take: true})
			pc = append(pc, c)
			drop := eb.Var(fmt.Sprintf("drop%d_%d", i, round), 1)
			out = append(out, PrefixQuery{Prefix: pc, Extra: drop, Take: true})
			pc = append(pc, drop)
		}
	}
	return out
}

// ReconcileModelQuery is the shape of the model queries the reconcile
// workload's assert, witness and test-case paths emit: two 8-bit symbolic
// timestamps widened to a word and offset by a constant base, the
// last-writer-wins order compare, its tie-break disequality, and one boolean
// failure literal (which partitions off). Distinct bases give structurally
// distinct queries, so no cache answers a stream of them.
func ReconcileModelQuery(eb *expr.Builder, base uint64) []*expr.Expr {
	const w = 32
	a := eb.Add(eb.ZExt(eb.Var("ts_a", 8), w), eb.Const(base, w))
	b := eb.Add(eb.ZExt(eb.Var("ts_b", 8), w), eb.Const(base, w))
	return []*expr.Expr{
		eb.Not(eb.Ult(a, b)),
		eb.Ne(a, b),
		eb.Not(eb.Var("drop_1", 1)),
	}
}
