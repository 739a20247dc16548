package expr

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestConstMasking(t *testing.T) {
	b := NewBuilder()
	tests := []struct {
		v     uint64
		width int
		want  uint64
	}{
		{0, 1, 0},
		{1, 1, 1},
		{2, 1, 0},
		{0xff, 8, 0xff},
		{0x1ff, 8, 0xff},
		{0xffffffffffffffff, 64, 0xffffffffffffffff},
		{0xffffffffffffffff, 32, 0xffffffff},
	}
	for _, tt := range tests {
		c := b.Const(tt.v, tt.width)
		if got := c.ConstVal(); got != tt.want {
			t.Errorf("Const(%#x, %d) = %#x, want %#x", tt.v, tt.width, got, tt.want)
		}
		if c.Width() != tt.width {
			t.Errorf("Const(%#x, %d).Width() = %d", tt.v, tt.width, c.Width())
		}
	}
}

// TestConstCacheKeepsIdentity: the read cache in front of Const only ever
// hands out interned nodes. Goroutines asking for constants that collide in
// its slots (far more distinct constants than slots, at three widths, one of
// them masking) get, every time, the node a cold Builder interns for that
// value and width — same pointer per builder, same hash across builders —
// and the table ends up with one node per distinct constant. The node table
// grows under them across several chunks: every node, whichever goroutine
// interned it, resolves through Node by its id, and the ids are exactly
// 1..NumNodes.
func TestConstCacheKeepsIdentity(t *testing.T) {
	b := NewBuilder()
	const values, workers = 5000, 4
	widths := []int{1, 8, 32}
	want := make(map[[2]uint64]*Expr)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 4*values; i++ {
				v, w := uint64(rng.Intn(values)), widths[rng.Intn(len(widths))]
				e := b.Const(v, w)
				if e.Width() != w || e.ConstVal() != v&mask(uint8(w)) {
					t.Errorf("Const(%d, %d) = %v", v, w, e)
					return
				}
				key := [2]uint64{e.ConstVal(), uint64(w)}
				mu.Lock()
				first, seen := want[key]
				if !seen {
					want[key] = e
				}
				mu.Unlock()
				if seen && first != e {
					t.Errorf("Const(%d, %d) returned two different nodes", v, w)
					return
				}
				if n := b.Node(e.ID()); n != e {
					t.Errorf("Node(%d) = %v, want %v", e.ID(), n, e)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := b.NumNodes(); got != len(want) {
		t.Errorf("NumNodes = %d after interning %d distinct constants", got, len(want))
	}
	if len(want) <= 2*nodeChunkBase {
		t.Fatalf("%d nodes fill fewer than three chunks of the node table", len(want))
	}
	ids := make([]bool, len(want)+1)
	for _, e := range want {
		if id := e.ID(); id == 0 || int(id) > len(want) || ids[id] {
			t.Fatalf("Const(%d, %d) has id %d: not one of 1..%d, or taken twice", e.ConstVal(), e.Width(), id, len(want))
		}
		ids[e.ID()] = true
		if b.Node(e.ID()) != e {
			t.Errorf("Node(%d) does not resolve to Const(%d, %d)", e.ID(), e.ConstVal(), e.Width())
		}
	}
	if b.Node(0) != nil {
		t.Error("Node(0) is not nil")
	}
	cold := NewBuilder()
	for key, e := range want {
		if c := cold.intern(exprKey{kind: KindConst, width: uint8(key[1]), val: key[0]}); c.Hash() != e.Hash() {
			t.Errorf("Const(%d, %d) hashes %#x through the cache, %#x interned directly", key[0], key[1], e.Hash(), c.Hash())
		}
	}
}

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	e1 := b.Add(x, y)
	e2 := b.Add(x, y)
	if e1 != e2 {
		t.Error("identical Add expressions are not pointer-equal")
	}
	e3 := b.Add(y, x) // commutative normalisation
	if e1 != e3 {
		t.Error("commuted Add expressions are not pointer-equal")
	}
	if b.Var("x", 32) != x {
		t.Error("re-requested variable is not pointer-equal")
	}
}

func TestVarRedeclarePanics(t *testing.T) {
	b := NewBuilder()
	b.Var("x", 32)
	defer func() {
		if recover() == nil {
			t.Error("redeclaring x at width 8 did not panic")
		}
	}()
	b.Var("x", 8)
}

func TestWidthMismatchPanics(t *testing.T) {
	b := NewBuilder()
	defer func() {
		if recover() == nil {
			t.Error("Add of mismatched widths did not panic")
		}
	}()
	b.Add(b.Const(1, 8), b.Const(1, 16))
}

func TestStructuralHashAcrossBuilders(t *testing.T) {
	mk := func() *Expr {
		b := NewBuilder()
		// Create an unrelated variable first so that ids differ between
		// builders; the structural hash must not change.
		b.Var("noise", 8)
		x := b.Var("x", 32)
		return b.Ult(b.Add(x, b.Const(7, 32)), b.Const(100, 32))
	}
	b2 := NewBuilder()
	x := b2.Var("x", 32)
	e2 := b2.Ult(b2.Add(x, b2.Const(7, 32)), b2.Const(100, 32))
	if mk().Hash() != e2.Hash() {
		t.Error("structurally identical expressions hash differently across builders")
	}
}

func TestSimplificationIdentities(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	zero := b.Const(0, 32)
	one := b.Const(1, 32)
	ones := b.Const(0xffffffff, 32)

	tests := []struct {
		name string
		got  *Expr
		want *Expr
	}{
		{"x+0", b.Add(x, zero), x},
		{"x-0", b.Sub(x, zero), x},
		{"x-x", b.Sub(x, x), zero},
		{"x*0", b.Mul(x, zero), zero},
		{"x*1", b.Mul(x, one), x},
		{"x/1", b.UDiv(x, one), x},
		{"x%1", b.URem(x, one), zero},
		{"x&0", b.And(x, zero), zero},
		{"x&~0", b.And(x, ones), x},
		{"x&x", b.And(x, x), x},
		{"x|0", b.Or(x, zero), x},
		{"x|~0", b.Or(x, ones), ones},
		{"x|x", b.Or(x, x), x},
		{"x^0", b.Xor(x, zero), x},
		{"x^x", b.Xor(x, x), zero},
		{"x^~0", b.Xor(x, ones), b.Not(x)},
		{"~~x", b.Not(b.Not(x)), x},
		{"x<<0", b.Shl(x, zero), x},
		{"x>>0", b.LShr(x, zero), x},
		{"x==x", b.Eq(x, x), b.True()},
		{"x<x", b.Ult(x, x), b.False()},
		{"x<=x", b.Ule(x, x), b.True()},
		{"x<0u", b.Ult(x, zero), b.False()},
		{"0<=x", b.Ule(zero, x), b.True()},
		{"ite(T,a,b)", b.Ite(b.True(), x, zero), x},
		{"ite(F,a,b)", b.Ite(b.False(), x, zero), zero},
		{"ite(c,x,x)", b.Ite(b.Var("c", 1), x, x), x},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("%s: got %v, want %v", tt.name, tt.got, tt.want)
		}
	}
}

func TestEqZExtNarrowing(t *testing.T) {
	b := NewBuilder()
	v := b.Var("v", 1)
	wide := b.ZExt(v, 32)
	// zext(v) == 0 must reduce to !v, and == 1 to v, keeping branch
	// conditions in literal form for the solver's fast path.
	if got := b.Eq(wide, b.Const(0, 32)); got != b.Not(v) {
		t.Errorf("zext(v)==0 = %v, want !v", got)
	}
	if got := b.Eq(wide, b.Const(1, 32)); got != v {
		t.Errorf("zext(v)==1 = %v, want v", got)
	}
	// A constant needing the extension bits can never match.
	if got := b.Eq(wide, b.Const(2, 32)); !got.IsFalse() {
		t.Errorf("zext(v)==2 = %v, want false", got)
	}
	// Wider sources narrow to the source width.
	x := b.Var("x", 8)
	if got := b.Eq(b.ZExt(x, 32), b.Const(0x42, 32)); got != b.Eq(x, b.Const(0x42, 8)) {
		t.Errorf("zext8(x)==0x42 = %v, want 8-bit comparison", got)
	}
	if got := b.Eq(b.ZExt(x, 32), b.Const(0x1ff, 32)); !got.IsFalse() {
		t.Errorf("zext8(x)==0x1ff = %v, want false", got)
	}
}

func TestIteOnBooleans(t *testing.T) {
	b := NewBuilder()
	c := b.Var("c", 1)
	if got := b.Ite(c, b.True(), b.False()); got != c {
		t.Errorf("ite(c,1,0) = %v, want c", got)
	}
	if got := b.Ite(c, b.False(), b.True()); got != b.Not(c) {
		t.Errorf("ite(c,0,1) = %v, want !c", got)
	}
}

func TestEvalBasics(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	env := Env{"x": 100, "y": 7}

	tests := []struct {
		name string
		e    *Expr
		want uint64
	}{
		{"add", b.Add(x, y), 107},
		{"sub", b.Sub(x, y), 93},
		{"sub-wrap", b.Sub(y, x), uint64(0x100000000 - 93)},
		{"mul", b.Mul(x, y), 700},
		{"udiv", b.UDiv(x, y), 14},
		{"urem", b.URem(x, y), 2},
		{"udiv0", b.UDiv(x, b.Const(0, 32)), 0xffffffff},
		{"urem0", b.URem(x, b.Const(0, 32)), 100},
		{"and", b.And(x, y), 100 & 7},
		{"or", b.Or(x, y), 100 | 7},
		{"xor", b.Xor(x, y), 100 ^ 7},
		{"shl", b.Shl(x, b.Const(2, 32)), 400},
		{"shl-over", b.Shl(x, b.Const(33, 32)), 0},
		{"lshr", b.LShr(x, b.Const(2, 32)), 25},
		{"eq", b.Eq(x, b.Const(100, 32)), 1},
		{"ne", b.Ne(x, b.Const(100, 32)), 0},
		{"ult", b.Ult(y, x), 1},
		{"ule", b.Ule(x, x), 1},
		{"ite", b.Ite(b.Ult(y, x), x, y), 100},
		{"zext", b.ZExt(b.Trunc(x, 8), 32), 100},
		{"trunc", b.Trunc(b.Const(0x1ff, 32), 8), 0xff},
	}
	for _, tt := range tests {
		if got := Eval(tt.e, env); got != tt.want {
			t.Errorf("%s: Eval(%v) = %d, want %d", tt.name, tt.e, got, tt.want)
		}
	}
}

func TestEvalSigned(t *testing.T) {
	b := NewBuilder()
	neg5 := b.Const(uint64(0x100000000-5), 32) // -5 as u32
	three := b.Const(3, 32)
	if Eval(b.Slt(neg5, three), nil) != 1 {
		t.Error("-5 <s 3 should be true")
	}
	if Eval(b.Ult(neg5, three), nil) != 0 {
		t.Error("-5 <u 3 should be false (large unsigned)")
	}
	if got := Eval(b.AShr(neg5, b.Const(1, 32)), nil); got != 0xfffffffd {
		t.Errorf("-5 >>s 1 = %#x, want 0xfffffffd", got)
	}
	if got := Eval(b.SExt(b.Const(0x80, 8), 32), nil); got != 0xffffff80 {
		t.Errorf("sext(0x80) = %#x, want 0xffffff80", got)
	}
	if Eval(b.Sle(neg5, neg5), nil) != 1 {
		t.Error("-5 <=s -5 should be true")
	}
}

// randomExpr builds a random expression over variables a, b (width w) and
// simultaneously computes the semantically-correct value of the chosen
// operator tree under env with plain Go arithmetic. Because the expected
// value is fixed by the operator the generator *chose* — before any smart
// constructor had a chance to rewrite it — a divergence flags a simplifier
// bug. It exercises every operator kind.
func randomExpr(bld *Builder, rng *rand.Rand, depth, w int, env Env) (*Expr, uint64) {
	m := mask(uint8(w))
	if depth == 0 || rng.Intn(5) == 0 {
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			return bld.Const(v, w), v & m
		case 1:
			return bld.Var("a", w), env["a"] & m
		default:
			return bld.Var("b", w), env["b"] & m
		}
	}
	x, xv := randomExpr(bld, rng, depth-1, w, env)
	y, yv := randomExpr(bld, rng, depth-1, w, env)
	switch rng.Intn(15) {
	case 0:
		return bld.Add(x, y), (xv + yv) & m
	case 1:
		return bld.Sub(x, y), (xv - yv) & m
	case 2:
		return bld.Mul(x, y), (xv * yv) & m
	case 3:
		if yv == 0 {
			return bld.UDiv(x, y), m
		}
		return bld.UDiv(x, y), xv / yv
	case 4:
		if yv == 0 {
			return bld.URem(x, y), xv
		}
		return bld.URem(x, y), xv % yv
	case 5:
		return bld.And(x, y), xv & yv
	case 6:
		return bld.Or(x, y), xv | yv
	case 7:
		return bld.Xor(x, y), xv ^ yv
	case 8:
		return bld.Not(x), ^xv & m
	case 9:
		if yv >= uint64(w) {
			return bld.Shl(x, y), 0
		}
		return bld.Shl(x, y), (xv << yv) & m
	case 10:
		if yv >= uint64(w) {
			return bld.LShr(x, y), 0
		}
		return bld.LShr(x, y), xv >> yv
	case 11:
		s := yv
		if s >= uint64(w) {
			s = uint64(w) - 1
		}
		return bld.AShr(x, y), uint64(int64(signExtend(xv, uint8(w)))>>s) & m
	case 12:
		cond := bld.Eq(x, y)
		if xv == yv {
			return bld.Ite(cond, x, y), xv
		}
		return bld.Ite(cond, x, y), yv
	case 13:
		half := (w + 1) / 2
		return bld.ZExt(bld.Trunc(x, half), w), xv & mask(uint8(half))
	default:
		half := (w + 1) / 2
		return bld.SExt(bld.Trunc(x, half), w), signExtend(xv&mask(uint8(half)), uint8(half)) & m
	}
}

// TestSimplifierSoundness is the central expr property: for random
// expression shapes and random inputs, the smart-constructor output (with
// all simplifications applied) evaluates to the value fixed by the chosen
// operators at generation time.
func TestSimplifierSoundness(t *testing.T) {
	for _, w := range []int{1, 8, 16, 32, 64} {
		w := w
		t.Run("w"+string(rune('0'+w/10))+string(rune('0'+w%10)), func(t *testing.T) {
			cfg := &quick.Config{MaxCount: 300}
			f := func(seed int64, av, bv uint64) bool {
				rng := rand.New(rand.NewSource(seed))
				bld := NewBuilder()
				env := Env{"a": av, "b": bv}
				e, want := randomExpr(bld, rng, 4, w, env)
				return Eval(e, env) == want
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestEvalWithinWidth checks that evaluation never produces bits above the
// expression width.
func TestEvalWithinWidth(t *testing.T) {
	f := func(seed int64, av, bv uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := Env{"a": av, "b": bv}
		for _, w := range []int{1, 7, 13, 32, 64} {
			bld := NewBuilder()
			e, _ := randomExpr(bld, rng, 3, w, env)
			if Eval(e, env)&^mask(uint8(w)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStringOutput(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	e := b.Ult(x, b.Const(50, 32))
	if got := e.String(); got != "(ult x 50:w32)" {
		t.Errorf("String() = %q", got)
	}
}
