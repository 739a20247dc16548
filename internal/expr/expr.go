// Package expr implements the symbolic bitvector expression language used
// throughout the SDE engine.
//
// Expressions are immutable, hash-consed DAG nodes produced by a Builder.
// Hash-consing guarantees that structurally identical expressions are
// pointer-identical, which makes equality checks, hashing, and solver-side
// memoisation O(1). The language is a small bitvector theory: constants,
// named symbolic variables, modular arithmetic, bitwise logic, shifts,
// unsigned/signed comparisons, if-then-else, and width conversions. Boolean
// values are 1-bit vectors (0 = false, 1 = true).
//
// Division semantics follow SMT-LIB: x/0 evaluates to the all-ones vector
// and x%0 evaluates to x, so expressions are total and the concrete
// evaluator agrees with the solver's bit-blasted circuits.
package expr

import (
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind identifies the operator at the root of an expression node.
type Kind uint8

// Expression node kinds. The zero value is invalid so that uninitialised
// nodes are detectable.
const (
	KindConst Kind = iota + 1
	KindVar
	KindAdd
	KindSub
	KindMul
	KindUDiv
	KindURem
	KindAnd
	KindOr
	KindXor
	KindNot
	KindShl
	KindLShr
	KindAShr
	KindEq
	KindUlt
	KindUle
	KindSlt
	KindSle
	KindIte
	KindZExt
	KindSExt
	KindTrunc
)

var kindNames = map[Kind]string{
	KindConst: "const",
	KindVar:   "var",
	KindAdd:   "add",
	KindSub:   "sub",
	KindMul:   "mul",
	KindUDiv:  "udiv",
	KindURem:  "urem",
	KindAnd:   "and",
	KindOr:    "or",
	KindXor:   "xor",
	KindNot:   "not",
	KindShl:   "shl",
	KindLShr:  "lshr",
	KindAShr:  "ashr",
	KindEq:    "eq",
	KindUlt:   "ult",
	KindUle:   "ule",
	KindSlt:   "slt",
	KindSle:   "sle",
	KindIte:   "ite",
	KindZExt:  "zext",
	KindSExt:  "sext",
	KindTrunc: "trunc",
}

// String returns the lower-case operator mnemonic.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// Expr is one immutable node of a hash-consed expression DAG. Expressions
// must only be created through a Builder; two expressions created by the
// same Builder are structurally equal if and only if they are the same
// pointer.
type Expr struct {
	kind  Kind
	width uint8  // result width in bits, 1..64
	id    uint32 // dense 1-based node id within the Builder (see Node)
	val   uint64 // KindConst: value (masked); KindVar: variable id
	name  string // KindVar only: symbolic input name
	a     *Expr  // first operand (nil for leaves)
	b     *Expr  // second operand
	c     *Expr  // third operand (KindIte condition uses a, then b, else c)
	hash  uint64 // structural hash, fixed at construction
	vids  []uint32
}

// Kind returns the node's operator kind.
func (e *Expr) Kind() Kind { return e.kind }

// Width returns the bit width of the expression's value (1..64).
func (e *Expr) Width() int { return int(e.width) }

// ID returns the node's id within its Builder: ids are dense, start at 1
// and follow interning order, and Builder.Node maps them back. A nil
// expression has id 0, which Node maps back to nil.
func (e *Expr) ID() uint32 {
	if e == nil {
		return 0
	}
	return e.id
}

// Hash returns a structural hash of the expression. Pointer-identical
// expressions always have equal hashes; distinct expressions collide only
// with ordinary hash probability.
func (e *Expr) Hash() uint64 { return e.hash }

// IsConst reports whether the expression is a constant.
func (e *Expr) IsConst() bool { return e.kind == KindConst }

// ConstVal returns the constant's value. It panics if the expression is not
// a constant; callers must check IsConst first.
func (e *Expr) ConstVal() uint64 {
	if e.kind != KindConst {
		panic("expr: ConstVal on non-constant " + e.kind.String())
	}
	return e.val
}

// IsVar reports whether the expression is a symbolic variable leaf.
func (e *Expr) IsVar() bool { return e.kind == KindVar }

// VarID returns the variable's unique id within its Builder. It panics if
// the expression is not a variable.
func (e *Expr) VarID() uint32 {
	if e.kind != KindVar {
		panic("expr: VarID on non-variable " + e.kind.String())
	}
	return uint32(e.val)
}

// VarName returns the variable's symbolic input name. It panics if the
// expression is not a variable.
func (e *Expr) VarName() string {
	if e.kind != KindVar {
		panic("expr: VarName on non-variable " + e.kind.String())
	}
	return e.name
}

// Arg returns the i-th operand (0-based) or nil if absent.
func (e *Expr) Arg(i int) *Expr {
	switch i {
	case 0:
		return e.a
	case 1:
		return e.b
	case 2:
		return e.c
	default:
		return nil
	}
}

// IsTrue reports whether the expression is the 1-bit constant 1.
func (e *Expr) IsTrue() bool { return e.kind == KindConst && e.width == 1 && e.val == 1 }

// IsFalse reports whether the expression is the 1-bit constant 0.
func (e *Expr) IsFalse() bool { return e.kind == KindConst && e.width == 1 && e.val == 0 }

// mask returns the bitmask for a width in bits (1..64).
func mask(width uint8) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// signBit returns the sign bit of v at the given width.
func signBit(v uint64, width uint8) uint64 {
	return (v >> (width - 1)) & 1
}

// signExtend sign-extends a width-bit value to 64 bits.
func signExtend(v uint64, width uint8) uint64 {
	if width >= 64 || signBit(v, width) == 0 {
		return v
	}
	return v | ^mask(width)
}

type exprKey struct {
	kind    Kind
	width   uint8
	val     uint64
	name    string
	a, b, c *Expr
}

// Builder interns and constructs expressions. All expressions that may be
// combined with each other must come from the same Builder. A Builder is
// safe for concurrent use.
type Builder struct {
	mu     sync.Mutex
	table  map[exprKey]*Expr
	vars   map[string]*Expr
	varSeq uint32

	// consts is a direct-mapped read cache in front of table for Const,
	// which the VM calls for every concrete word it writes back: a hit
	// costs one atomic load instead of the lock and a hash of the key. It
	// only ever holds nodes intern returned, so pointer identity, NumNodes
	// and every hash are what they are without it, and goroutines may race
	// on a slot freely — whichever node ends up there is a valid one.
	consts [1 << constCacheBits]atomic.Pointer[Expr]

	// nodes maps ids to nodes: chunk k holds the nodeChunkBase<<k ids from
	// nodeChunkBase<<k - nodeChunkBase + 1 on. A chunk is allocated whole
	// under mu before the first id in it is handed out and never moves, and
	// a slot is written under mu before its node leaves intern, so anyone
	// holding an id — which came from a node intern returned — reads the
	// slot and its chunk after they were written: Node takes no lock.
	nodes    [nodeChunks][]*Expr
	numNodes uint32
}

// nodeChunkBits sizes the first chunk of Builder.nodes (256 ids, 2 KB); each
// further chunk doubles, so a run that interns n nodes holds at most 2n
// slots in log2(n/256)+1 chunks and the short-lived Builder of a lease or an
// assembled leaf starts as small as its intern table.
const (
	nodeChunkBits = 8
	nodeChunkBase = 1 << nodeChunkBits
	nodeChunks    = 32 - nodeChunkBits // ids up to 2^32 - nodeChunkBase
)

// constCacheBits sizes Builder.consts. The constants a run keeps producing
// are few (node ids, small counters, a handful of addresses): 256 slots hit
// over 98% of the time on every benchmark workload, and every resumed lease
// builds a Builder, so the cache stays at 2 KB.
const constCacheBits = 8

// internTableHint pre-sizes Builder.table. Every engine builds a Builder —
// a fleet job one per lease and one per assembled leaf, most of which
// intern a few dozen nodes — so the table starts small and grows by
// doubling: a run that interns tens of thousands of nodes pays a handful
// of rehashes once, where a 1,024-entry table cost each short-lived engine
// ~100 KB of zeroed buckets.
const internTableHint = 64

// NewBuilder returns an empty expression builder.
func NewBuilder() *Builder {
	return &Builder{
		table: make(map[exprKey]*Expr, internTableHint),
		vars:  make(map[string]*Expr, 64),
	}
}

// NumNodes returns the number of distinct interned nodes, a rough measure
// of solver-visible formula size.
func (b *Builder) NumNodes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.numNodes)
}

// Node returns the node with the given id, or nil for id 0. The id must be
// one this Builder handed out (Expr.ID); Node takes no lock.
func (b *Builder) Node(id uint32) *Expr {
	if id == 0 {
		return nil
	}
	k, i := nodeSlot(id)
	return b.nodes[k][i]
}

// nodeSlot locates id (>= 1) in Builder.nodes: chunk k, index i.
func nodeSlot(id uint32) (k int, i uint) {
	x := uint(id) - 1 + nodeChunkBase
	k = bits.Len(x) - 1 - nodeChunkBits
	return k, x - nodeChunkBase<<k
}

// addNode assigns e the next id and publishes it in the node table. The
// caller holds b.mu.
func (b *Builder) addNode(e *Expr) {
	if b.numNodes == 1<<32-nodeChunkBase {
		panic("expr: node table full")
	}
	b.numNodes++
	e.id = b.numNodes
	k, i := nodeSlot(e.id)
	if b.nodes[k] == nil {
		b.nodes[k] = make([]*Expr, nodeChunkBase<<k)
	}
	b.nodes[k][i] = e
}

// NumVars returns the number of distinct symbolic variables created.
func (b *Builder) NumVars() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.vars)
}

func checkWidth(width int) uint8 {
	if width < 1 || width > 64 {
		panic("expr: width out of range: " + strconv.Itoa(width))
	}
	return uint8(width)
}

func hashCombine(h uint64, v uint64) uint64 {
	// FNV-1a style mixing with a 64-bit prime.
	h ^= v
	h *= 1099511628211
	h ^= h >> 29
	return h
}

func (b *Builder) intern(k exprKey) *Expr {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.table[k]; ok {
		return e
	}
	h := uint64(14695981039346656037)
	h = hashCombine(h, uint64(k.kind))
	h = hashCombine(h, uint64(k.width))
	if k.kind != KindVar {
		// Variable ids depend on creation order, which may differ between
		// engine runs; a variable's structural identity is its name.
		h = hashCombine(h, k.val)
	}
	for _, s := range k.name {
		h = hashCombine(h, uint64(s))
	}
	if k.a != nil {
		h = hashCombine(h, k.a.hash)
	}
	if k.b != nil {
		h = hashCombine(h, k.b.hash)
	}
	if k.c != nil {
		h = hashCombine(h, k.c.hash)
	}
	// The hash is purely structural (no per-Builder state) so that
	// fingerprints are comparable across independent engine runs.
	h = hashCombine(h, 0x9e3779b97f4a7c15)
	e := &Expr{
		kind: k.kind, width: k.width, val: k.val, name: k.name,
		a: k.a, b: k.b, c: k.c, hash: h,
	}
	// Operands are interned before their parents, so the free-variable
	// set is a sorted merge of already-computed child sets. Computing it
	// eagerly here makes VarIDs O(1) for the optimizer's union-find
	// slicing and the VM's implied-value checks.
	if k.kind == KindVar {
		e.vids = []uint32{uint32(k.val)}
	} else {
		e.vids = mergeVarIDs(k.a, k.b, k.c)
	}
	b.addNode(e)
	b.table[k] = e
	return e
}

// Const returns the constant v truncated to the given width.
func (b *Builder) Const(v uint64, width int) *Expr {
	w := checkWidth(width)
	v &= mask(w)
	slot := &b.consts[(v^uint64(w)<<56)*0x9e3779b97f4a7c15>>(64-constCacheBits)]
	if e := slot.Load(); e != nil && e.val == v && e.width == w {
		return e
	}
	e := b.intern(exprKey{kind: KindConst, width: w, val: v})
	slot.Store(e)
	return e
}

// Bool returns the 1-bit constant for v.
func (b *Builder) Bool(v bool) *Expr {
	if v {
		return b.Const(1, 1)
	}
	return b.Const(0, 1)
}

// True returns the 1-bit constant 1.
func (b *Builder) True() *Expr { return b.Bool(true) }

// False returns the 1-bit constant 0.
func (b *Builder) False() *Expr { return b.Bool(false) }

// Var returns the symbolic variable with the given name and width, creating
// it on first use. Requesting an existing name with a different width
// panics: a symbolic input has exactly one type.
func (b *Builder) Var(name string, width int) *Expr {
	w := checkWidth(width)
	b.mu.Lock()
	if e, ok := b.vars[name]; ok {
		b.mu.Unlock()
		if e.width != w {
			panic("expr: variable " + name + " redeclared with different width")
		}
		return e
	}
	id := b.varSeq
	b.varSeq++
	b.mu.Unlock()
	e := b.intern(exprKey{kind: KindVar, width: w, val: uint64(id), name: name})
	b.mu.Lock()
	b.vars[name] = e
	b.mu.Unlock()
	return e
}

// Vars returns all variables created so far, ordered by creation (VarID).
func (b *Builder) Vars() []*Expr {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*Expr, len(b.vars))
	for _, v := range b.vars {
		out[v.VarID()] = v
	}
	return out
}

func sameWidth(a, c *Expr) uint8 {
	if a.width != c.width {
		panic("expr: width mismatch: " + a.kind.String() + "/" +
			strconv.Itoa(int(a.width)) + " vs " + c.kind.String() + "/" +
			strconv.Itoa(int(c.width)))
	}
	return a.width
}

// commute orders the operands of a commutative operator canonically:
// constants first, then by structural hash. This improves interning hits
// and lets the simplifier assume "constant on the left".
func commute(a, c *Expr) (*Expr, *Expr) {
	if c.IsConst() && !a.IsConst() {
		return c, a
	}
	if !a.IsConst() && !c.IsConst() && c.hash < a.hash {
		return c, a
	}
	return a, c
}

// Add returns a+b (mod 2^width).
func (b *Builder) Add(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	x, y = commute(x, y)
	if x.IsConst() {
		if y.IsConst() {
			return b.Const(x.val+y.val, int(w))
		}
		if x.val == 0 {
			return y
		}
	}
	// (c + e) + c2  =>  (c+c2) + e
	if x.IsConst() && y.kind == KindAdd && y.a.IsConst() {
		return b.Add(b.Const(x.val+y.a.val, int(w)), y.b)
	}
	return b.intern(exprKey{kind: KindAdd, width: w, a: x, b: y})
}

// Sub returns a-b (mod 2^width).
func (b *Builder) Sub(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	if x.IsConst() && y.IsConst() {
		return b.Const(x.val-y.val, int(w))
	}
	if y.IsConst() && y.val == 0 {
		return x
	}
	if x == y {
		return b.Const(0, int(w))
	}
	if y.IsConst() {
		// x - c  =>  (-c) + x, reusing Add's normalisation.
		return b.Add(b.Const(-y.val, int(w)), x)
	}
	return b.intern(exprKey{kind: KindSub, width: w, a: x, b: y})
}

// Mul returns a*b (mod 2^width).
func (b *Builder) Mul(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	x, y = commute(x, y)
	if x.IsConst() {
		if y.IsConst() {
			return b.Const(x.val*y.val, int(w))
		}
		switch x.val {
		case 0:
			return b.Const(0, int(w))
		case 1:
			return y
		}
	}
	return b.intern(exprKey{kind: KindMul, width: w, a: x, b: y})
}

// UDiv returns the unsigned quotient a/b, with a/0 = all-ones (SMT-LIB).
func (b *Builder) UDiv(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	if x.IsConst() && y.IsConst() {
		if y.val == 0 {
			return b.Const(mask(w), int(w))
		}
		return b.Const(x.val/y.val, int(w))
	}
	if y.IsConst() && y.val == 1 {
		return x
	}
	return b.intern(exprKey{kind: KindUDiv, width: w, a: x, b: y})
}

// URem returns the unsigned remainder a%b, with a%0 = a (SMT-LIB).
func (b *Builder) URem(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	if x.IsConst() && y.IsConst() {
		if y.val == 0 {
			return x
		}
		return b.Const(x.val%y.val, int(w))
	}
	if y.IsConst() && y.val == 1 {
		return b.Const(0, int(w))
	}
	return b.intern(exprKey{kind: KindURem, width: w, a: x, b: y})
}

// And returns the bitwise conjunction a&b. On 1-bit operands this is
// logical AND.
func (b *Builder) And(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	x, y = commute(x, y)
	if x.IsConst() {
		if y.IsConst() {
			return b.Const(x.val&y.val, int(w))
		}
		switch x.val {
		case 0:
			return b.Const(0, int(w))
		case mask(w):
			return y
		}
	}
	if x == y {
		return x
	}
	return b.intern(exprKey{kind: KindAnd, width: w, a: x, b: y})
}

// Or returns the bitwise disjunction a|b. On 1-bit operands this is
// logical OR.
func (b *Builder) Or(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	x, y = commute(x, y)
	if x.IsConst() {
		if y.IsConst() {
			return b.Const(x.val|y.val, int(w))
		}
		switch x.val {
		case 0:
			return y
		case mask(w):
			return b.Const(mask(w), int(w))
		}
	}
	if x == y {
		return x
	}
	return b.intern(exprKey{kind: KindOr, width: w, a: x, b: y})
}

// Xor returns the bitwise exclusive-or a^b.
func (b *Builder) Xor(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	x, y = commute(x, y)
	if x.IsConst() {
		if y.IsConst() {
			return b.Const(x.val^y.val, int(w))
		}
		if x.val == 0 {
			return y
		}
		if x.val == mask(w) {
			return b.Not(y)
		}
	}
	if x == y {
		return b.Const(0, int(w))
	}
	return b.intern(exprKey{kind: KindXor, width: w, a: x, b: y})
}

// Not returns the bitwise complement ^a. On 1-bit operands this is logical
// negation.
func (b *Builder) Not(x *Expr) *Expr {
	if x.IsConst() {
		return b.Const(^x.val, int(x.width))
	}
	if x.kind == KindNot {
		return x.a
	}
	return b.intern(exprKey{kind: KindNot, width: x.width, a: x})
}

// shiftAmount folds an oversized constant shift to the saturated result.
func oversized(y *Expr, w uint8) bool { return y.IsConst() && y.val >= uint64(w) }

// Shl returns a<<b; shifting by >= width yields 0.
func (b *Builder) Shl(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	if oversized(y, w) {
		return b.Const(0, int(w))
	}
	if x.IsConst() && y.IsConst() {
		return b.Const(x.val<<y.val, int(w))
	}
	if y.IsConst() && y.val == 0 {
		return x
	}
	return b.intern(exprKey{kind: KindShl, width: w, a: x, b: y})
}

// LShr returns the logical right shift a>>b; shifting by >= width yields 0.
func (b *Builder) LShr(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	if oversized(y, w) {
		return b.Const(0, int(w))
	}
	if x.IsConst() && y.IsConst() {
		return b.Const(x.val>>y.val, int(w))
	}
	if y.IsConst() && y.val == 0 {
		return x
	}
	return b.intern(exprKey{kind: KindLShr, width: w, a: x, b: y})
}

// AShr returns the arithmetic right shift; shifting by >= width yields the
// sign fill (0 or all-ones).
func (b *Builder) AShr(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	if x.IsConst() {
		sx := int64(signExtend(x.val, w))
		if oversized(y, w) {
			if sx < 0 {
				return b.Const(mask(w), int(w))
			}
			return b.Const(0, int(w))
		}
		if y.IsConst() {
			return b.Const(uint64(sx>>y.val), int(w))
		}
	}
	if oversized(y, w) {
		// Result is width copies of x's sign bit.
		sign := b.Ne(b.Const(0, int(w)), b.And(x, b.Const(uint64(1)<<(w-1), int(w))))
		return b.Ite(sign, b.Const(mask(w), int(w)), b.Const(0, int(w)))
	}
	if y.IsConst() && y.val == 0 {
		return x
	}
	return b.intern(exprKey{kind: KindAShr, width: w, a: x, b: y})
}

// Eq returns the 1-bit comparison a==b.
func (b *Builder) Eq(x, y *Expr) *Expr {
	sameWidth(x, y)
	x, y = commute(x, y)
	if x.IsConst() && y.IsConst() {
		return b.Bool(x.val == y.val)
	}
	if x == y {
		return b.True()
	}
	// On 1-bit operands, x == true is x, x == false is !x.
	if x.width == 1 && x.IsConst() {
		if x.val == 1 {
			return y
		}
		return b.Not(y)
	}
	// const == zext(e) narrows to a comparison at e's width (or is
	// trivially false when the constant needs the extension bits). This
	// keeps branch conditions over widened booleans in literal form.
	if x.IsConst() && y.kind == KindZExt {
		if x.val > mask(y.a.width) {
			return b.False()
		}
		return b.Eq(b.Const(x.val, int(y.a.width)), y.a)
	}
	return b.intern(exprKey{kind: KindEq, width: 1, a: x, b: y})
}

// Ne returns the 1-bit comparison a!=b.
func (b *Builder) Ne(x, y *Expr) *Expr { return b.Not(b.Eq(x, y)) }

// Ult returns the 1-bit unsigned comparison a<b.
func (b *Builder) Ult(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	if x.IsConst() && y.IsConst() {
		return b.Bool(x.val < y.val)
	}
	if x == y {
		return b.False()
	}
	if y.IsConst() && y.val == 0 {
		return b.False() // nothing is < 0 unsigned
	}
	if x.IsConst() && x.val == mask(w) {
		return b.False() // all-ones is < nothing
	}
	return b.intern(exprKey{kind: KindUlt, width: 1, a: x, b: y})
}

// Ule returns the 1-bit unsigned comparison a<=b.
func (b *Builder) Ule(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	if x.IsConst() && y.IsConst() {
		return b.Bool(x.val <= y.val)
	}
	if x == y {
		return b.True()
	}
	if x.IsConst() && x.val == 0 {
		return b.True()
	}
	if y.IsConst() && y.val == mask(w) {
		return b.True()
	}
	return b.intern(exprKey{kind: KindUle, width: 1, a: x, b: y})
}

// Slt returns the 1-bit signed comparison a<b.
func (b *Builder) Slt(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	if x.IsConst() && y.IsConst() {
		return b.Bool(int64(signExtend(x.val, w)) < int64(signExtend(y.val, w)))
	}
	if x == y {
		return b.False()
	}
	return b.intern(exprKey{kind: KindSlt, width: 1, a: x, b: y})
}

// Sle returns the 1-bit signed comparison a<=b.
func (b *Builder) Sle(x, y *Expr) *Expr {
	w := sameWidth(x, y)
	if x.IsConst() && y.IsConst() {
		return b.Bool(int64(signExtend(x.val, w)) <= int64(signExtend(y.val, w)))
	}
	if x == y {
		return b.True()
	}
	return b.intern(exprKey{kind: KindSle, width: 1, a: x, b: y})
}

// Ite returns "if cond then t else f". cond must be 1-bit; t and f must
// have equal widths.
func (b *Builder) Ite(cond, t, f *Expr) *Expr {
	if cond.width != 1 {
		panic("expr: Ite condition must be 1-bit")
	}
	w := sameWidth(t, f)
	if cond.IsConst() {
		if cond.val == 1 {
			return t
		}
		return f
	}
	if t == f {
		return t
	}
	// ite(c, 1, 0) == c for 1-bit results; ite(c, 0, 1) == !c.
	if w == 1 && t.IsConst() && f.IsConst() {
		if t.val == 1 {
			return cond
		}
		return b.Not(cond)
	}
	return b.intern(exprKey{kind: KindIte, width: w, a: cond, b: t, c: f})
}

// ZExt zero-extends x to the given wider (or equal) width.
func (b *Builder) ZExt(x *Expr, width int) *Expr {
	w := checkWidth(width)
	if w < x.width {
		panic("expr: ZExt to narrower width")
	}
	if w == x.width {
		return x
	}
	if x.IsConst() {
		return b.Const(x.val, int(w))
	}
	return b.intern(exprKey{kind: KindZExt, width: w, a: x})
}

// SExt sign-extends x to the given wider (or equal) width.
func (b *Builder) SExt(x *Expr, width int) *Expr {
	w := checkWidth(width)
	if w < x.width {
		panic("expr: SExt to narrower width")
	}
	if w == x.width {
		return x
	}
	if x.IsConst() {
		return b.Const(signExtend(x.val, x.width), int(w))
	}
	return b.intern(exprKey{kind: KindSExt, width: w, a: x})
}

// Trunc truncates x to the given narrower (or equal) width.
func (b *Builder) Trunc(x *Expr, width int) *Expr {
	w := checkWidth(width)
	if w > x.width {
		panic("expr: Trunc to wider width")
	}
	if w == x.width {
		return x
	}
	if x.IsConst() {
		return b.Const(x.val, int(w))
	}
	return b.intern(exprKey{kind: KindTrunc, width: w, a: x})
}

// BoolToBV widens a 1-bit boolean to a width-bit 0/1 value.
func (b *Builder) BoolToBV(cond *Expr, width int) *Expr {
	return b.ZExt(cond, width)
}
