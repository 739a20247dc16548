package vm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sde/internal/expr"
	"sde/internal/isa"
)

// Shapes genDiffProgram can be told to emit ahead of its random segments,
// one bit each. All but the last also come up at random; they are what a
// chain of fast blocks has to get right beyond what a single block does.
const (
	// shapeStoreReload: a loop that stores a word and reloads it in the
	// next iteration — store-to-load forwarding across blocks.
	shapeStoreReload = 1 << iota
	// shapeSymbolicMidLoop: a loop whose load hits a symbolic word for the
	// first time in a late iteration — the chain must commit the
	// iterations before it and hand that one to the interpreter untouched.
	shapeSymbolicMidLoop
	// shapeChainThroughRet: nested helpers whose bodies and return sites
	// are all fast — one chain pops two frames.
	shapeChainThroughRet
	// shapeStoreFlood: a loop that stores to a fresh address every
	// iteration, then a block that alone stores to more words than the
	// chain's buffer holds — the chain must end at a boundary when the
	// buffer fills, and leave the oversized block to the interpreter.
	shapeStoreFlood
	// shapeSpin: the program ends in an infinite concrete loop through a
	// run of jumps instead of returning; only a budget ends it.
	shapeSpin

	numDiffShapes = 5
)

// genDiffProgram builds a deterministic pseudo-random program for the
// compiled-vs-interpreted differential: concrete ALU chains, bounded
// loops, memory traffic, helper calls, symbolic inputs feeding branches
// and asserts, and sends, after the shapes the mask forces. Register
// discipline keeps it terminating (shapeSpin aside): R15 is reserved for
// loop counters, R10 for the memory base and R12..R14 for the table walk
// of shapeSymbolicMidLoop, so random ops never clobber control state and
// symbolic data reaches a branch or an assert only as the narrow input
// itself.
func genDiffProgram(tb testing.TB, seed int64, shapes uint8) *isa.Program {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := isa.NewBuilder()

	helper := b.Func("helper")
	helper.Add(isa.R3, isa.R1, isa.R2)
	helper.MulI(isa.R3, isa.R3, 2654435761)
	helper.XorI(isa.R1, isa.R3, 0x5bd1)
	helper.Ret()

	outer := b.Func("outer")
	outer.AddI(isa.R2, isa.R2, 7)
	outer.Call("helper")
	outer.XorI(isa.R3, isa.R1, 0x33)
	outer.Ret()

	f := b.Func("main")
	f.MovI(isa.R10, 0x1000) // memory base
	gp := []isa.Reg{isa.R1, isa.R2, isa.R3, isa.R4, isa.R5, isa.R6, isa.R7}
	reg := func() isa.Reg { return gp[rng.Intn(len(gp))] }
	seen := 0 // labels minted so far
	label := func(prefix string) string {
		seen++
		return fmt.Sprintf("%s%d", prefix, seen)
	}

	emitALU := func() {
		rd, ra, rb := reg(), reg(), reg()
		switch rng.Intn(12) {
		case 0:
			f.MovI(rd, rng.Uint32())
		case 1:
			f.Add(rd, ra, rb)
		case 2:
			f.Sub(rd, ra, rb)
		case 3:
			f.Mul(rd, ra, rb)
		case 4:
			f.UDiv(rd, ra, rb) // division by zero is defined (all-ones)
		case 5:
			f.URem(rd, ra, rb)
		case 6:
			f.Xor(rd, ra, rb)
		case 7:
			f.ShlI(rd, ra, rng.Uint32()%40) // oversized shifts included
		case 8:
			f.LShrI(rd, ra, rng.Uint32()%40)
		case 9:
			f.Not(rd, ra)
		case 10:
			f.Slt(rd, ra, rb)
		case 11:
			f.Ult(rd, ra, rb)
		}
	}

	syms := 0
	emitSegment := func(kind int) {
		switch kind {
		case 0: // straight-line ALU burst
			for i := 0; i < 2+rng.Intn(5); i++ {
				emitALU()
			}
		case 1: // bounded concrete loop
			l := label("loop")
			f.MovI(isa.R15, uint32(1+rng.Intn(6)))
			f.Label(l)
			for i := 0; i < 1+rng.Intn(3); i++ {
				emitALU()
			}
			f.SubI(isa.R15, isa.R15, 1)
			f.BrNZ(isa.R15, l)
		case 2: // memory round-trip
			f.Store(isa.R10, rng.Uint32()%16, reg())
			f.Load(reg(), isa.R10, rng.Uint32()%16)
		case 3: // symbolic input + branch (forks both modes identically)
			if syms < 2 {
				name := fmt.Sprintf("s%d", syms)
				syms++
				skip := label("skip")
				f.Sym(isa.R8, name, uint32(1+rng.Intn(3)))
				f.UltI(isa.R9, isa.R8, uint32(1+rng.Intn(4)))
				f.BrZ(isa.R9, skip)
				emitALU()
				f.Label(skip)
				f.Nop()
			} else {
				emitALU()
			}
		case 4: // assert, sometimes on symbolic data
			if syms > 0 && rng.Intn(2) == 0 {
				f.NeI(isa.R9, isa.R8, rng.Uint32()%4)
			} else {
				f.EqI(isa.R9, reg(), rng.Uint32())
			}
			f.Assert(isa.R9, label("a"))
		case 5: // send a two-word payload to a concrete peer
			f.MovI(isa.R11, uint32(1+rng.Intn(3)))
			f.Send(isa.R11, isa.R10, 2)
		case 6:
			f.Call("helper")
		case 7: // shapeStoreReload
			l := label("loop")
			off := rng.Uint32() % 16
			acc := reg()
			f.MovI(isa.R15, uint32(2+rng.Intn(5)))
			f.Label(l)
			f.Load(acc, isa.R10, off)
			emitALU()
			f.AddI(acc, acc, rng.Uint32())
			f.Store(isa.R10, off, acc)
			f.SubI(isa.R15, isa.R15, 1)
			f.BrNZ(isa.R15, l)
		case 8: // shapeSymbolicMidLoop
			l := label("loop")
			k := uint32(1 + rng.Intn(3)) // the symbolic word's index: iteration k+1 reads it
			f.Sym(isa.R8, fmt.Sprintf("s%d", syms), uint32(1+rng.Intn(3)))
			syms++
			f.Store(isa.R10, 32+k, isa.R8)
			f.MovI(isa.R12, 0)
			f.MovI(isa.R15, k+uint32(1+rng.Intn(3)))
			f.Label(l)
			// What runs before the load must not survive its abort: replayed
			// by the interpreter, a kept counter or a kept read-modify-write
			// would count twice.
			f.Load(isa.R13, isa.R10, 48)
			f.AddI(isa.R13, isa.R13, 3)
			f.Store(isa.R10, 48, isa.R13)
			f.AddI(isa.R12, isa.R12, 1)
			f.Add(isa.R13, isa.R10, isa.R12)
			f.Load(isa.R9, isa.R13, 31)
			f.Add(isa.R14, isa.R14, isa.R9) // a symbolic live-in from iteration k+2 on
			f.SubI(isa.R15, isa.R15, 1)
			f.BrNZ(isa.R15, l)
		case 9: // shapeChainThroughRet
			f.Call("outer")
			emitALU()
			emitALU()
		case 10: // shapeStoreFlood
			l := label("loop")
			f.MovI(isa.R12, 0)
			f.MovI(isa.R15, uint32(fastStoreCap+2+rng.Intn(6)))
			f.Label(l)
			f.Add(isa.R13, isa.R10, isa.R12)
			f.Store(isa.R13, 64, reg())
			emitALU()
			f.AddI(isa.R12, isa.R12, 1)
			f.SubI(isa.R15, isa.R15, 1)
			f.BrNZ(isa.R15, l)
			for j := uint32(0); j < fastStoreCap+2; j++ {
				f.Store(isa.R10, 128+j, reg())
				emitALU()
			}
			f.Load(reg(), isa.R10, 64+rng.Uint32()%fastStoreCap)
			f.Load(reg(), isa.R10, 128+rng.Uint32()%fastStoreCap)
		}
	}
	for kind := 0; kind < numDiffShapes-1; kind++ {
		if shapes&(1<<kind) != 0 {
			emitSegment(7 + kind)
		}
	}
	for seg := 0; seg < 4+rng.Intn(4); seg++ {
		emitSegment(rng.Intn(7 + numDiffShapes - 1))
	}
	if shapes&shapeSpin != 0 {
		f.Label("spin")
		f.AddI(isa.R1, isa.R1, 1)
		f.Jmp("hop1")
		f.Label("hop2")
		f.Jmp("spin")
		f.Label("hop1")
		f.Jmp("hop2")
	}
	f.Ret()

	prog, err := b.Build()
	if err != nil {
		tb.Fatalf("seed %d: Build: %v", seed, err)
	}
	return prog
}

// diffHooks records every observable side effect of an exploration in a
// comparable form.
type diffHooks struct {
	pending    []*State
	sends      []uint64
	violations []string
}

func (h *diffHooks) OnFork(_, sibling *State) { h.pending = append(h.pending, sibling) }

func (h *diffHooks) OnSend(_ *State, dst uint32, payload []*expr.Expr) {
	v := uint64(dst)
	for _, p := range payload {
		v = v*1099511628211 ^ p.Hash()
	}
	h.sends = append(h.sends, v)
}

func (h *diffHooks) OnViolation(_ *State, v *Violation) {
	h.violations = append(h.violations,
		fmt.Sprintf("n%d@%d %s %v", v.Node, v.Time, v.Msg, v.Model))
}

// diffState is where one explored path ended: position, step count, every
// register and every written memory word by structural hash, and the
// fingerprint over all of it.
type diffState struct {
	Fingerprint uint64
	Steps       uint64
	Status      Status
	Err         string
	Fn, PC      int
	Frames      []frame
	Regs        [isa.NumRegs]uint64
	Mem         map[uint32]uint64
}

func captureDiffState(s *State, err error) diffState {
	d := diffState{
		Fingerprint: s.Fingerprint(),
		Steps:       s.Steps(),
		Status:      s.Status(),
		Fn:          s.fn,
		PC:          s.pc,
		Frames:      append([]frame(nil), s.frames...),
		Mem:         map[uint32]uint64{},
	}
	if err != nil {
		d.Err = err.Error()
	}
	for r, e := range s.regs {
		if e != nil {
			d.Regs[r] = e.Hash()
		}
	}
	for _, sl := range s.mem.slots {
		for wi, id := range sl.p.words {
			if id != 0 {
				d.Mem[sl.idx<<pageShift|uint32(wi)] = s.ctx.Exprs.Node(id).Hash()
			}
		}
	}
	return d
}

// diffResult is everything a mode's exploration produced. The two modes
// must agree on all of it bit-for-bit.
type diffResult struct {
	States       []diffState
	Sends        []uint64
	Violations   []string
	Instructions uint64
	Forks        uint64
}

// diffExplore is a miniature DFS exploration (the shape of Explore) that
// gives every state the same instruction budget and keeps sends and
// violations for comparison.
func diffExplore(tb testing.TB, prog *isa.Program, compile bool, budget int) diffResult {
	tb.Helper()
	ctx := NewContext()
	ctx.SetCompiledIR(compile)
	h := &diffHooks{}
	root := NewState(ctx, prog, 1)
	root.StartCall(prog.FuncIndex("main"))
	stack := []*State{root}
	var res diffResult
	for len(stack) > 0 && len(res.States) < 128 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		h.pending = h.pending[:0]
		err := s.Run(0, budget, h)
		stack = append(stack, h.pending...)
		res.States = append(res.States, captureDiffState(s, err))
	}
	res.Sends = h.sends
	res.Violations = h.violations
	st := ctx.Stats()
	res.Instructions = st.Instructions
	res.Forks = st.Forks
	if compile {
		if st.SlowBlocks == 0 && st.FastBlocks == 0 {
			tb.Errorf("compiled run recorded no block executions at all")
		}
	} else if st.FastBlocks != 0 || st.SlowBlocks != 0 || st.FoldedInstrs != 0 {
		tb.Errorf("compile-off run recorded block counters: fast=%d slow=%d folded=%d",
			st.FastBlocks, st.SlowBlocks, st.FoldedInstrs)
	}
	return res
}

// diffBudget is the per-state budget of the plain differential: far more
// than any terminating generated program needs, small enough that a
// shapeSpin program dies of it quickly.
const diffBudget = 1 << 12

// checkDiffAt compares the two modes on one program at one budget and
// returns the interpreted result.
func checkDiffAt(tb testing.TB, prog *isa.Program, seed int64, shapes uint8, budget int) diffResult {
	tb.Helper()
	compiled := diffExplore(tb, prog, true, budget)
	interp := diffExplore(tb, prog, false, budget)
	if !reflect.DeepEqual(compiled, interp) {
		tb.Fatalf("seed %d shapes %#x budget %d: compiled and interpreted runs diverge\ncompiled:    %+v\ninterpreted: %+v\nprogram:\n%s",
			seed, shapes, budget, compiled, interp, isa.WriteAsm(prog))
	}
	return interp
}

func checkDiff(tb testing.TB, seed int64, shapes uint8) {
	tb.Helper()
	checkDiffAt(tb, genDiffProgram(tb, seed, shapes), seed, shapes, diffBudget)
}

// forEachDiffProgram calls fn for the differential corpus: n random
// programs, then one program per forced shape and one with all of them.
func forEachDiffProgram(n int64, fn func(seed int64, shapes uint8)) {
	for seed := int64(0); seed < n; seed++ {
		fn(seed, 0)
	}
	for k := 0; k < numDiffShapes; k++ {
		fn(int64(k), 1<<k)
	}
	fn(0, 1<<numDiffShapes-1)
}

func diffCorpusSize() int64 {
	if testing.Short() {
		return 10
	}
	return 40
}

// TestCompiledDiffRandomPrograms is the differential oracle for the
// chained fast path: over a corpus of random programs, a compiled
// exploration must produce exactly the interpreted exploration — where
// every path ended (position, registers, memory, fingerprint, step
// count, status, error), forks, sends, violation witnesses, and total
// instruction count.
func TestCompiledDiffRandomPrograms(t *testing.T) {
	forEachDiffProgram(diffCorpusSize(), func(seed int64, shapes uint8) {
		checkDiff(t, seed, shapes)
	})
}

// TestCompiledDiffBudgetSweep runs the same corpus at every instruction
// budget from 1 up to past the longest path (a fixed 200 for programs that
// spin): wherever the budget cuts a path — inside a block, at a leader,
// inside a collapsed jump run, on the instruction that returns — the
// compiled run must stop on the interpreter's instruction, with its error.
func TestCompiledDiffBudgetSweep(t *testing.T) {
	forEachDiffProgram(diffCorpusSize(), func(seed int64, shapes uint8) {
		prog := genDiffProgram(t, seed, shapes)
		top := 200
		if shapes&shapeSpin == 0 {
			top = 0
			for _, st := range checkDiffAt(t, prog, seed, shapes, diffBudget).States {
				top = max(top, int(st.Steps)+2)
			}
		}
		for budget := 1; budget <= top; budget++ {
			checkDiffAt(t, prog, seed, shapes, budget)
		}
	})
}

// TestChainInternsOnlyWhatLeavesIt is the timer-free guard on what the
// chained fast path is for: a long concrete loop leaves behind the
// expression nodes of its live-out registers and of the distinct words it
// stored, not a node per iteration.
func TestChainInternsOnlyWhatLeavesIt(t *testing.T) {
	const iters = 10000
	prog := build(t, func(b *isa.Builder) {
		f := b.Func("main")
		f.MovI(isa.R1, iters)
		f.MovI(isa.R2, 0)
		f.MovI(isa.R10, 0x1000)
		f.Label("loop")
		f.Add(isa.R2, isa.R2, isa.R1)
		f.XorI(isa.R3, isa.R2, 0x5a)
		f.Store(isa.R10, 0, isa.R3)
		f.Store(isa.R10, 1, isa.R2)
		f.SubI(isa.R1, isa.R1, 1)
		f.BrNZ(isa.R1, "loop")
		f.Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	s.StartCall(prog.FuncIndex("main"))
	before := ctx.Exprs.NumNodes()
	if err := s.Run(0, 0, NopHooks{}); err != nil {
		t.Fatal(err)
	}
	if s.Status() != StatusIdle || s.Steps() != 3+6*iters+1 {
		t.Fatalf("loop did not run to its return: %v after %d steps", s.Status(), s.Steps())
	}
	// Four registers written, two words stored.
	if grew := ctx.Exprs.NumNodes() - before; grew > 4+2 {
		t.Errorf("%d iterations interned %d expression nodes, want at most 6", iters, grew)
	}
}

// FuzzCompiledDiff is the coverage-guided companion of
// TestCompiledDiffRandomPrograms.
func FuzzCompiledDiff(f *testing.F) {
	forEachDiffProgram(8, func(seed int64, shapes uint8) { f.Add(seed, shapes) })
	f.Fuzz(func(t *testing.T, seed int64, shapes uint8) {
		checkDiff(t, seed, shapes)
	})
}

// TestEvalALUMatchesExprBuilder pins the fast path's native ALU to the
// expression builder's constant-folding semantics for every binary opcode
// over edge-case and random operands — the agreement the whole fast path
// rests on.
func TestEvalALUMatchesExprBuilder(t *testing.T) {
	prog := build(t, func(b *isa.Builder) {
		b.Func("main").Ret()
	})
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	eb := ctx.Exprs

	ops := []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpUDiv, isa.OpURem,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpLShr, isa.OpAShr,
		isa.OpEq, isa.OpNe, isa.OpUlt, isa.OpUle, isa.OpSlt, isa.OpSle,
	}
	edges := []uint64{0, 1, 2, 7, 31, 32, 33, 40, 0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff}
	var pairs [][2]uint64
	for _, a := range edges {
		for _, b := range edges {
			pairs = append(pairs, [2]uint64{a, b})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		pairs = append(pairs, [2]uint64{uint64(rng.Uint32()), uint64(rng.Uint32())})
	}

	for _, op := range ops {
		for _, p := range pairs {
			ref := s.alu(op, eb.Const(p[0], WordBits), eb.Const(p[1], WordBits))
			if !ref.IsConst() {
				t.Fatalf("%v(%#x, %#x): builder result not constant", op, p[0], p[1])
			}
			if got := isa.EvalALU(op, p[0], p[1]); got != ref.ConstVal() {
				t.Errorf("EvalALU(%v, %#x, %#x) = %#x, builder says %#x",
					op, p[0], p[1], got, ref.ConstVal())
			}
		}
	}
}
