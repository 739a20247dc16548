package qopt

import (
	"math/rand"
	"testing"

	"sde/internal/expr"
)

// exprGen grows random expression DAGs from a fuzz byte stream. The
// stream is the only source of shape decisions, so the corpus minimiser
// works; an exhausted stream degrades to leaves, which bounds depth.
type exprGen struct {
	eb   *expr.Builder
	data []byte
	pos  int
}

func (g *exprGen) byte() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

var genWidths = []int{1, 4, 8, 12}

// word returns a random expression of the given width.
func (g *exprGen) word(width, depth int) *expr.Expr {
	eb := g.eb
	op := g.byte()
	if depth <= 0 {
		op %= 2
	}
	switch op % 12 {
	case 0:
		return eb.Const(uint64(g.byte()), width)
	case 1:
		return eb.Var(varName(width, int(g.byte())%3), width)
	case 2:
		return eb.Add(g.word(width, depth-1), g.word(width, depth-1))
	case 3:
		return eb.Sub(g.word(width, depth-1), g.word(width, depth-1))
	case 4:
		return eb.Mul(g.word(width, depth-1), g.word(width, depth-1))
	case 5:
		return eb.UDiv(g.word(width, depth-1), g.word(width, depth-1))
	case 6:
		return eb.URem(g.word(width, depth-1), g.word(width, depth-1))
	case 7:
		switch g.byte() % 3 {
		case 0:
			return eb.And(g.word(width, depth-1), g.word(width, depth-1))
		case 1:
			return eb.Or(g.word(width, depth-1), g.word(width, depth-1))
		default:
			return eb.Xor(g.word(width, depth-1), g.word(width, depth-1))
		}
	case 8:
		return eb.Not(g.word(width, depth-1))
	case 9:
		switch g.byte() % 3 {
		case 0:
			return eb.Shl(g.word(width, depth-1), g.word(width, depth-1))
		case 1:
			return eb.LShr(g.word(width, depth-1), g.word(width, depth-1))
		default:
			return eb.AShr(g.word(width, depth-1), g.word(width, depth-1))
		}
	case 10:
		return eb.Ite(g.boolean(depth-1), g.word(width, depth-1), g.word(width, depth-1))
	default:
		// Width change: extend or truncate through a different width.
		from := genWidths[int(g.byte())%len(genWidths)]
		inner := g.word(from, depth-1)
		switch {
		case from < width && g.byte()%2 == 0:
			return g.eb.ZExt(inner, width)
		case from < width:
			return g.eb.SExt(inner, width)
		case from > width:
			return g.eb.Trunc(inner, width)
		default:
			return inner
		}
	}
}

// boolean returns a random 1-bit expression (a constraint).
func (g *exprGen) boolean(depth int) *expr.Expr {
	eb := g.eb
	op := g.byte()
	if depth <= 0 {
		op %= 2
	}
	switch op % 8 {
	case 0:
		return eb.Var(varName(1, int(g.byte())%3), 1)
	case 1:
		return eb.Bool(g.byte()%2 == 0)
	case 2:
		return eb.Not(g.boolean(depth - 1))
	case 3:
		if g.byte()%2 == 0 {
			return eb.And(g.boolean(depth-1), g.boolean(depth-1))
		}
		return eb.Or(g.boolean(depth-1), g.boolean(depth-1))
	default:
		w := genWidths[int(g.byte())%len(genWidths)]
		a, b := g.word(w, depth-1), g.word(w, depth-1)
		switch g.byte() % 5 {
		case 0:
			return eb.Eq(a, b)
		case 1:
			return eb.Ult(a, b)
		case 2:
			return eb.Ule(a, b)
		case 3:
			return eb.Slt(a, b)
		default:
			return eb.Sle(a, b)
		}
	}
}

func varName(width, idx int) string {
	return "v" + string(rune('a'+idx)) + "_w" + string(rune('0'+width%10))
}

// randomEnv assigns a pseudo-random value to every variable the builder
// has seen, derived deterministically from the fuzz input.
func randomEnv(eb *expr.Builder, rng *rand.Rand) expr.Env {
	env := expr.Env{}
	for _, v := range eb.Vars() {
		env[v.VarName()] = rng.Uint64()
	}
	return env
}

// FuzzRewriteEquivalence is the rewriter's differential oracle: for
// random constraint DAGs, the per-constraint rewrite must evaluate
// identically to the original under random concrete assignments, and the
// set-level OptimizeSet output's conjunction must evaluate identically to
// the input conjunction (including its unsat short-circuit).
func FuzzRewriteEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{4, 2, 8, 1, 0, 3, 200, 11, 7, 5, 9, 13, 17, 255, 128, 64})
	f.Add([]byte("runicast-backoff-times-eight"))
	f.Add([]byte{11, 1, 3, 0, 7, 4, 0, 8, 2, 2, 2, 9, 1, 0, 5, 6, 10, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		eb := expr.NewBuilder()
		g := &exprGen{eb: eb, data: data}
		n := 1 + int(g.byte())%4
		cs := make([]*expr.Expr, 0, n)
		for i := 0; i < n; i++ {
			cs = append(cs, g.boolean(4))
		}
		o := New(eb)

		seed := int64(len(data))
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))

		rewritten := make([]*expr.Expr, len(cs))
		for i, c := range cs {
			rewritten[i] = o.Rewrite(c)
		}
		out, unsat := o.OptimizeSet(cs)

		for trial := 0; trial < 16; trial++ {
			env := randomEnv(eb, rng)
			for i, c := range cs {
				if got, want := expr.Eval(rewritten[i], env), expr.Eval(c, env); got != want {
					t.Fatalf("rewrite changed value: %v -> %v (%d != %d) under %v",
						c, rewritten[i], want, got, env)
				}
			}
			conj := uint64(1)
			for _, c := range cs {
				conj &= expr.Eval(c, env)
			}
			optConj := uint64(1)
			if unsat {
				optConj = 0
			} else {
				for _, c := range out {
					optConj &= expr.Eval(c, env)
				}
			}
			if conj != optConj {
				t.Fatalf("OptimizeSet changed conjunction value (%d != %d): %v -> %v (unsat=%v) under %v",
					conj, optConj, cs, out, unsat, env)
			}
		}
	})
}
