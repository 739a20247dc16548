package solver

import (
	"fmt"
	"sync"

	"sde/internal/expr"
)

// litScratch pools the literal scratch buffers of the word-level circuit
// constructors below. The big circuits (multiplier, divider, barrel
// shifter) build and discard one transient word per stage; on constraint-
// heavy runs those made the blaster the dominant allocator. Only buffers
// that never escape are pooled — memoised encode outputs live as long as
// the blaster. satSolver.addClause copies its literals into the clause
// arena, so a recycled buffer never aliases a stored clause, and the pool is
// shared safely by the per-slot blasters of concurrent speculation workers.
var litScratch = sync.Pool{
	New: func() any {
		s := make([]Lit, 0, 64)
		return &s
	},
}

// scratchWord borrows a width-w literal buffer from the pool.
func scratchWord(w int) *[]Lit {
	p := litScratch.Get().(*[]Lit)
	if cap(*p) < w {
		*p = make([]Lit, w)
	}
	*p = (*p)[:w]
	return p
}

// blaster lowers expression DAGs onto a satSolver instance. Each bitvector
// expression becomes a little-endian slice of literals (index 0 = LSB).
// Encodings are memoised per expression node, so shared DAG nodes are
// encoded once per query.
type blaster struct {
	sat  *satSolver
	memo map[*expr.Expr][]Lit
	// vars records, per symbolic variable, its bit literals so the model
	// can be read back after solving.
	vars map[*expr.Expr][]Lit
	// litTrue is a variable constrained true; constants are expressed as
	// ±litTrue so gate code never special-cases them.
	litTrue Lit
	// gates counts the auxiliary Tseitin variables allocated by the gate
	// constructors — the encoding work a persistent blaster avoids
	// repeating across queries.
	gates int64
}

// newBlaster attaches a blaster to a new satSolver instance.
func newBlaster(sat *satSolver) *blaster {
	b := &blaster{
		sat:  sat,
		memo: make(map[*expr.Expr][]Lit),
		vars: make(map[*expr.Expr][]Lit),
	}
	b.defineTrue()
	return b
}

// defineTrue allocates litTrue and asserts it: the first variable and the
// first level-0 fact of every instance.
func (b *blaster) defineTrue() {
	b.litTrue = b.sat.newVar()
	b.sat.addClause(b.litTrue)
}

// reset returns the blaster and its instance to the state
// newBlaster(newSatSolver()) produces, keeping their allocations: the
// instance is reset, the memo tables are cleared (which also drops their
// references to expression nodes and encoded words), and litTrue is defined
// again — as variable 1, like the first time.
func (b *blaster) reset() {
	b.sat.reset()
	clear(b.memo)
	clear(b.vars)
	b.gates = 0
	b.defineTrue()
}

func (b *blaster) litFalse() Lit { return -b.litTrue }

func (b *blaster) isTrue(l Lit) bool  { return l == b.litTrue }
func (b *blaster) isFalse(l Lit) bool { return l == -b.litTrue }

func (b *blaster) constBit(v bool) Lit {
	if v {
		return b.litTrue
	}
	return b.litFalse()
}

// assertTrue constrains a 1-bit encoding to hold.
func (b *blaster) assertTrue(l Lit) bool {
	return b.sat.addClause(l)
}

// --- gates ---------------------------------------------------------------
//
// andGate, xorGate and muxGate are the only constructors that allocate a
// variable (besides litTrue and a symbolic input's bits): each records its
// output's fan-in and tags every clause of its definition with the output,
// which is what lets a persistent instance restrict a solve to the cone of
// its assumptions (satSolver.restrictTo).

func (b *blaster) andGate(x, y Lit) Lit {
	switch {
	case b.isFalse(x) || b.isFalse(y):
		return b.litFalse()
	case b.isTrue(x):
		return y
	case b.isTrue(y):
		return x
	case x == y:
		return x
	case x == -y:
		return b.litFalse()
	}
	b.gates++
	o := b.sat.newGate(x, y, 0)
	b.sat.addGateClause(o, -o, x)
	b.sat.addGateClause(o, -o, y)
	b.sat.addGateClause(o, o, -x, -y)
	return o
}

func (b *blaster) orGate(x, y Lit) Lit {
	return -b.andGate(-x, -y)
}

func (b *blaster) xorGate(x, y Lit) Lit {
	switch {
	case b.isFalse(x):
		return y
	case b.isFalse(y):
		return x
	case b.isTrue(x):
		return -y
	case b.isTrue(y):
		return -x
	case x == y:
		return b.litFalse()
	case x == -y:
		return b.litTrue
	}
	b.gates++
	o := b.sat.newGate(x, y, 0)
	b.sat.addGateClause(o, -o, x, y)
	b.sat.addGateClause(o, -o, -x, -y)
	b.sat.addGateClause(o, o, -x, y)
	b.sat.addGateClause(o, o, x, -y)
	return o
}

// muxGate returns c ? x : y.
func (b *blaster) muxGate(c, x, y Lit) Lit {
	switch {
	case b.isTrue(c):
		return x
	case b.isFalse(c):
		return y
	case x == y:
		return x
	}
	b.gates++
	o := b.sat.newGate(c, x, y)
	b.sat.addGateClause(o, -c, -x, o)
	b.sat.addGateClause(o, -c, x, -o)
	b.sat.addGateClause(o, c, -y, o)
	b.sat.addGateClause(o, c, y, -o)
	return o
}

// majGate returns the majority of three bits (the full-adder carry).
func (b *blaster) majGate(x, y, z Lit) Lit {
	return b.orGate(b.andGate(x, y), b.orGate(b.andGate(x, z), b.andGate(y, z)))
}

// --- word-level circuits ---------------------------------------------------

func (b *blaster) constWord(v uint64, width int) []Lit {
	out := make([]Lit, width)
	for i := 0; i < width; i++ {
		out[i] = b.constBit((v>>uint(i))&1 == 1)
	}
	return out
}

// adder returns x + y + cin and the carry-out.
func (b *blaster) adder(x, y []Lit, cin Lit) ([]Lit, Lit) {
	out := make([]Lit, len(x))
	c := cin
	for i := range x {
		out[i] = b.xorGate(b.xorGate(x[i], y[i]), c)
		c = b.majGate(x[i], y[i], c)
	}
	return out, c
}

func (b *blaster) negWord(x []Lit) []Lit {
	ip := scratchWord(len(x))
	inv := *ip
	for i := range x {
		inv[i] = -x[i]
	}
	out, _ := b.adder(inv, b.constWord(1, len(x)), b.litFalse())
	litScratch.Put(ip)
	return out
}

func (b *blaster) mul(x, y []Lit) []Lit {
	w := len(x)
	acc := b.constWord(0, w)
	pp := scratchWord(w)
	partial := *pp
	for i := 0; i < w; i++ {
		// acc += y_i ? (x << i) : 0
		for j := 0; j < w; j++ {
			if j < i {
				partial[j] = b.litFalse()
			} else {
				partial[j] = b.andGate(x[j-i], y[i])
			}
		}
		acc, _ = b.adder(acc, partial, b.litFalse())
	}
	litScratch.Put(pp)
	return acc
}

// ugeWord returns the 1-bit result of x >= y (unsigned).
func (b *blaster) ugeWord(x, y []Lit) Lit {
	return -b.ultWord(x, y)
}

// ultWord returns the 1-bit result of x < y (unsigned), via an LSB-to-MSB
// comparison chain.
func (b *blaster) ultWord(x, y []Lit) Lit {
	lt := b.litFalse()
	for i := 0; i < len(x); i++ {
		eq := -b.xorGate(x[i], y[i])
		lt = b.orGate(b.andGate(-x[i], y[i]), b.andGate(eq, lt))
	}
	return lt
}

func (b *blaster) eqWord(x, y []Lit) Lit {
	acc := b.litTrue
	for i := range x {
		acc = b.andGate(acc, -b.xorGate(x[i], y[i]))
	}
	return acc
}

// subIf returns (cond ? x - y : x). Used by the restoring divider.
func (b *blaster) subIf(cond Lit, x, y []Lit) []Lit {
	diff, _ := b.adder(x, b.negWord(y), b.litFalse())
	out := make([]Lit, len(x))
	for i := range x {
		out[i] = b.muxGate(cond, diff[i], x[i])
	}
	return out
}

// divRem builds a restoring-division circuit. Division by zero follows the
// SMT-LIB convention (quotient all-ones, remainder = dividend), enforced
// with a final mux on the "divisor is zero" bit.
func (b *blaster) divRem(x, y []Lit) (quo, rem []Lit) {
	w := len(x)
	r := b.constWord(0, w)
	q := make([]Lit, w)
	sp := scratchWord(w)
	shifted := *sp
	for i := w - 1; i >= 0; i-- {
		// r = (r << 1) | x_i
		shifted[0] = x[i]
		copy(shifted[1:], r[:w-1])
		ge := b.ugeWord(shifted, y)
		r = b.subIf(ge, shifted, y)
		q[i] = ge
	}
	litScratch.Put(sp)
	yZero := b.eqWord(y, b.constWord(0, w))
	quo = make([]Lit, w)
	rem = make([]Lit, w)
	for i := 0; i < w; i++ {
		quo[i] = b.muxGate(yZero, b.litTrue, q[i])
		rem[i] = b.muxGate(yZero, x[i], r[i])
	}
	return quo, rem
}

// shift builds a barrel shifter. dir selects the variant: left, logical
// right, or arithmetic right. Shift amounts >= width produce the fill
// value (0 or the sign bit for arithmetic right shifts).
type shiftDir uint8

const (
	shiftLeft shiftDir = iota + 1
	shiftRightLogic
	shiftRightArith
)

func (b *blaster) shift(x, amount []Lit, dir shiftDir) []Lit {
	w := len(x)
	fill := b.litFalse()
	if dir == shiftRightArith {
		fill = x[w-1]
	}
	cp, np := scratchWord(w), scratchWord(w)
	cur, next := *cp, *np
	copy(cur, x)
	// Stages for each amount bit that can shift within the word.
	for k := 0; k < len(amount) && (1<<uint(k)) < w; k++ {
		step := 1 << uint(k)
		for i := 0; i < w; i++ {
			var from Lit
			switch dir {
			case shiftLeft:
				if i-step >= 0 {
					from = cur[i-step]
				} else {
					from = fill
				}
			default:
				if i+step < w {
					from = cur[i+step]
				} else {
					from = fill
				}
			}
			next[i] = b.muxGate(amount[k], from, cur[i])
		}
		cur, next = next, cur
	}
	// If any amount bit at or above log2(w) is set, the shift saturates.
	over := b.litFalse()
	for k := 0; k < len(amount); k++ {
		if 1<<uint(k) >= w {
			over = b.orGate(over, amount[k])
		}
	}
	out := make([]Lit, w)
	for i := 0; i < w; i++ {
		out[i] = b.muxGate(over, fill, cur[i])
	}
	litScratch.Put(cp)
	litScratch.Put(np)
	return out
}

// encode lowers e to its literal vector, memoised per node.
func (b *blaster) encode(e *expr.Expr) []Lit {
	if lits, ok := b.memo[e]; ok {
		return lits
	}
	var out []Lit
	w := e.Width()
	switch e.Kind() {
	case expr.KindConst:
		out = b.constWord(e.ConstVal(), w)
	case expr.KindVar:
		out = make([]Lit, w)
		for i := range out {
			out[i] = b.sat.newVar()
		}
		b.vars[e] = out
	case expr.KindAdd:
		out, _ = b.adder(b.encode(e.Arg(0)), b.encode(e.Arg(1)), b.litFalse())
	case expr.KindSub:
		y := b.negWord(b.encode(e.Arg(1)))
		out, _ = b.adder(b.encode(e.Arg(0)), y, b.litFalse())
	case expr.KindMul:
		out = b.mul(b.encode(e.Arg(0)), b.encode(e.Arg(1)))
	case expr.KindUDiv:
		out, _ = b.divRem(b.encode(e.Arg(0)), b.encode(e.Arg(1)))
	case expr.KindURem:
		_, out = b.divRem(b.encode(e.Arg(0)), b.encode(e.Arg(1)))
	case expr.KindAnd, expr.KindOr, expr.KindXor:
		x, y := b.encode(e.Arg(0)), b.encode(e.Arg(1))
		out = make([]Lit, w)
		for i := 0; i < w; i++ {
			switch e.Kind() {
			case expr.KindAnd:
				out[i] = b.andGate(x[i], y[i])
			case expr.KindOr:
				out[i] = b.orGate(x[i], y[i])
			default:
				out[i] = b.xorGate(x[i], y[i])
			}
		}
	case expr.KindNot:
		x := b.encode(e.Arg(0))
		out = make([]Lit, w)
		for i := range x {
			out[i] = -x[i]
		}
	case expr.KindShl:
		out = b.shift(b.encode(e.Arg(0)), b.encode(e.Arg(1)), shiftLeft)
	case expr.KindLShr:
		out = b.shift(b.encode(e.Arg(0)), b.encode(e.Arg(1)), shiftRightLogic)
	case expr.KindAShr:
		out = b.shift(b.encode(e.Arg(0)), b.encode(e.Arg(1)), shiftRightArith)
	case expr.KindEq:
		out = []Lit{b.eqWord(b.encode(e.Arg(0)), b.encode(e.Arg(1)))}
	case expr.KindUlt:
		out = []Lit{b.ultWord(b.encode(e.Arg(0)), b.encode(e.Arg(1)))}
	case expr.KindUle:
		out = []Lit{-b.ultWord(b.encode(e.Arg(1)), b.encode(e.Arg(0)))}
	case expr.KindSlt, expr.KindSle:
		x := append([]Lit(nil), b.encode(e.Arg(0))...)
		y := append([]Lit(nil), b.encode(e.Arg(1))...)
		// Signed comparison = unsigned comparison with sign bits flipped.
		x[len(x)-1] = -x[len(x)-1]
		y[len(y)-1] = -y[len(y)-1]
		if e.Kind() == expr.KindSlt {
			out = []Lit{b.ultWord(x, y)}
		} else {
			out = []Lit{-b.ultWord(y, x)}
		}
	case expr.KindIte:
		c := b.encode(e.Arg(0))[0]
		x, y := b.encode(e.Arg(1)), b.encode(e.Arg(2))
		out = make([]Lit, w)
		for i := 0; i < w; i++ {
			out[i] = b.muxGate(c, x[i], y[i])
		}
	case expr.KindZExt:
		x := b.encode(e.Arg(0))
		out = make([]Lit, w)
		copy(out, x)
		for i := len(x); i < w; i++ {
			out[i] = b.litFalse()
		}
	case expr.KindSExt:
		x := b.encode(e.Arg(0))
		out = make([]Lit, w)
		copy(out, x)
		for i := len(x); i < w; i++ {
			out[i] = x[len(x)-1]
		}
	case expr.KindTrunc:
		x := b.encode(e.Arg(0))
		out = append([]Lit(nil), x[:w]...)
	default:
		panic(fmt.Sprintf("solver: cannot blast kind %v", e.Kind()))
	}
	b.memo[e] = out
	return out
}
