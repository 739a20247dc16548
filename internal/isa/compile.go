package isa

// BUILD phase of the load-time compiler (see ir.go for CREATE): walk the
// blocks the CREATE phase cut and precompute everything the vm's fast
// path and the static passes consume — register def/use sets, effect
// summaries, MovI-fed constant folding, fast-path (concretizability)
// eligibility, and the interprocedural read-before-write liveness that
// lets the event dispatcher skip zeroing registers a handler never
// reads.

import (
	"fmt"
	"sort"
)

// compileProgram runs CREATE then BUILD over every function, then the
// whole-program fixpoint passes (liveness) that need all functions'
// block structure at once.
func compileProgram(p *Program) *ProgIR {
	ir := &ProgIR{Funcs: make([]FuncIR, len(p.funcs))}
	for fi := range p.funcs {
		ir.Funcs[fi] = createBlocks(&p.funcs[fi])
		buildBlocks(&p.funcs[fi], &ir.Funcs[fi])
	}
	computeLiveness(p, ir)
	return ir
}

// regUses returns the registers an instruction reads.
func regUses(in *Instr) RegSet {
	var rs RegSet
	switch {
	case in.Op == OpMov || in.Op == OpNot || in.Op == OpLoad:
		rs.Add(in.Ra)
	case in.Op.IsBinary():
		rs.Add(in.Ra)
		if !in.BImm {
			rs.Add(in.Rb)
		}
	case in.Op == OpBrNZ || in.Op == OpBrZ || in.Op == OpAssert ||
		in.Op == OpAssume || in.Op == OpPrint:
		rs.Add(in.Ra)
	case in.Op == OpStore || in.Op == OpSend || in.Op == OpTimer:
		rs.Add(in.Ra)
		rs.Add(in.Rb)
	}
	return rs
}

// regDef returns the register an instruction writes, if any.
func regDef(in *Instr) (Reg, bool) {
	switch {
	case in.Op == OpMovI || in.Op == OpMov || in.Op == OpNot ||
		in.Op == OpLoad || in.Op == OpSym || in.Op == OpNodeID ||
		in.Op == OpTime:
		return in.Rd, true
	case in.Op.IsBinary():
		return in.Rd, true
	}
	return 0, false
}

// fastEligible reports whether the opcode can run on the vm's concrete
// straight-line fast path: its whole effect is on registers and memory
// (plus a concrete control transfer) and is computable on raw uint64s.
// Everything touching the symbolic runtime — fresh symbolic values,
// constraints, packet sends, timers, calls, halts, trace output — stays
// on the interpreter.
func fastEligible(in *Instr) bool {
	switch in.Op {
	case OpNop, OpMovI, OpMov, OpNot, OpLoad, OpStore, OpNodeID, OpTime,
		OpJmp, OpBrNZ, OpBrZ, OpRet:
		return true
	}
	return in.Op.IsBinary()
}

// buildBlocks fills one function's per-block metadata in place.
func buildBlocks(f *Func, fi *FuncIR) {
	n := len(f.Instrs)
	for bi := range fi.Blocks {
		b := &fi.Blocks[bi]
		var known [NumRegs]FoldedVal
		folded := make([]FoldedVal, b.Len())
		anyFolded := false
		fast := true
		for idx := b.Start; idx < b.End; idx++ {
			in := &f.Instrs[idx]
			for r := Reg(0); r < NumRegs; r++ {
				if regUses(in).Has(r) && !b.Def.Has(r) {
					b.Use.Add(r)
				}
			}
			switch in.Op {
			case OpLoad, OpStore, OpSend:
				b.TouchesMem = true
			}
			if in.Op == OpSend {
				b.Sends = true
			}
			if in.Op == OpBrNZ || in.Op == OpBrZ || in.Op == OpAssume || in.Op == OpAssert {
				b.MayFork = true
			}
			if in.Op == OpSym {
				b.HasSym = true
			}
			if !fastEligible(in) {
				fast = false
			}
			// A fast block must keep control inside the function.
			switch in.Op {
			case OpJmp, OpBrNZ, OpBrZ:
				if in.Target < 0 || in.Target >= n {
					fast = false
				}
			}

			// Constant folding over MovI-fed chains. The fold uses the
			// same 32-bit semantics as the symbolic expression builder
			// (EvalALU), so a folded value is exactly what the
			// interpreter would compute.
			if w, ok := regDef(in); ok {
				res := FoldedVal{}
				switch {
				case in.Op == OpMovI:
					res = FoldedVal{Known: true, Val: uint64(in.Imm)}
				case in.Op == OpMov:
					res = known[in.Ra]
					if res.Known {
						folded[idx-b.Start] = res
						anyFolded = true
					}
				case in.Op == OpNot:
					if known[in.Ra].Known {
						res = FoldedVal{Known: true, Val: ^known[in.Ra].Val & wordMask}
						folded[idx-b.Start] = res
						anyFolded = true
					}
				case in.Op.IsBinary():
					a := known[in.Ra]
					bv := FoldedVal{Known: in.BImm, Val: uint64(in.Imm)}
					if !in.BImm {
						bv = known[in.Rb]
					}
					if a.Known && bv.Known {
						res = FoldedVal{Known: true, Val: EvalALU(in.Op, a.Val, bv.Val)}
						folded[idx-b.Start] = res
						anyFolded = true
					}
				}
				known[w] = res
				b.Def.Add(w)
			}
		}
		b.Fast = fast
		if anyFolded {
			b.Folded = folded
		}
	}
}

// EvalALU computes a binary ALU or comparison instruction on concrete
// 32-bit words, with semantics bit-identical to the symbolic expression
// builder's constant folder (SMT-LIB bitvector semantics): division by
// zero yields all-ones, remainder by zero yields the dividend,
// oversized shifts yield zero (sign-fill for AShr), signed comparisons
// sign-extend from 32 bits, and comparisons yield 0 or 1. Operands must
// already be 32-bit values; the result is 32-bit.
func EvalALU(op Op, a, b uint64) uint64 {
	switch op {
	case OpAdd:
		return (a + b) & wordMask
	case OpSub:
		return (a - b) & wordMask
	case OpMul:
		return (a * b) & wordMask
	case OpUDiv:
		if b == 0 {
			return wordMask
		}
		return a / b
	case OpURem:
		if b == 0 {
			return a
		}
		return a % b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		if b >= WordBits {
			return 0
		}
		return (a << b) & wordMask
	case OpLShr:
		if b >= WordBits {
			return 0
		}
		return a >> b
	case OpAShr:
		neg := a&(1<<(WordBits-1)) != 0
		if b >= WordBits {
			if neg {
				return wordMask
			}
			return 0
		}
		v := a >> b
		if neg {
			v |= (wordMask >> b) ^ wordMask
		}
		return v
	case OpEq:
		return b2u(a == b)
	case OpNe:
		return b2u(a != b)
	case OpUlt:
		return b2u(a < b)
	case OpUle:
		return b2u(a <= b)
	case OpSlt:
		return b2u(int32(uint32(a)) < int32(uint32(b)))
	case OpSle:
		return b2u(int32(uint32(a)) <= int32(uint32(b)))
	default:
		panic("isa: EvalALU on non-ALU op " + op.String())
	}
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// computeLiveness fills FuncIR.LiveIn for every function: the registers
// the function may read before writing, transitively through calls. The
// analysis is a backward block-level dataflow run to a whole-program
// fixpoint (call sites inject the callee's LiveIn, and callees are
// conservatively assumed to write nothing, so recursion converges from
// below). The event dispatcher uses entry LiveIn as the set of
// registers it must zero before running a handler.
func computeLiveness(p *Program, ir *ProgIR) {
	liveIn := make([][]RegSet, len(ir.Funcs))
	for fi := range ir.Funcs {
		liveIn[fi] = make([]RegSet, len(ir.Funcs[fi].Blocks))
	}
	for changed := true; changed; {
		changed = false
		for fi := range ir.Funcs {
			f := &p.funcs[fi]
			fir := &ir.Funcs[fi]
			for bi := len(fir.Blocks) - 1; bi >= 0; bi-- {
				b := &fir.Blocks[bi]
				var live RegSet
				for _, s := range b.Succs {
					live |= liveIn[fi][s]
				}
				for idx := b.End - 1; idx >= b.Start; idx-- {
					in := &f.Instrs[idx]
					if w, ok := regDef(in); ok {
						live &^= 1 << w
					}
					live |= regUses(in)
					if in.Op == OpCall && in.Fn >= 0 && in.Fn < len(ir.Funcs) {
						live |= ir.Funcs[in.Fn].LiveIn
					}
				}
				if live != liveIn[fi][bi] {
					liveIn[fi][bi] = live
					changed = true
				}
			}
			var entry RegSet
			if len(fir.Blocks) > 0 {
				entry = liveIn[fi][0]
			}
			if entry != fir.LiveIn {
				fir.LiveIn = entry
				changed = true
			}
		}
	}
}

// ShardSite is a conditional branch whose condition is data-dependent on
// symbolic input — a candidate shard point: pinning the decision
// partitions the dscenario space the way CustomConfig.ShardableNodes
// partitions network-drop decisions.
type ShardSite struct {
	Fn     int      // function index
	FnName string   // function name
	PC     int      // instruction index of the branch
	Syms   []string // symbolic input names that may flow into the condition
}

func (s ShardSite) String() string {
	return fmt.Sprintf("%s@%d (inputs %v)", s.FnName, s.PC, s.Syms)
}

// ShardableSites runs a static taint pass over the program's CFG and
// returns every conditional branch whose condition may be
// data-dependent on an OpSym result, in (function, pc) order. The pass
// is a forward may-analysis and overapproximates: registers carry sets
// of symbolic input names, stores of tainted values taint a single
// abstract memory cell (all loads then read it), call sites merge the
// caller's taint into the callee and return-site blocks merge every
// callee exit. Sites it reports are candidates, not guarantees — a
// branch may have one feasible side under the path condition at runtime —
// but a branch it does NOT report never forks on symbolic program input.
func (p *Program) ShardableSites() []ShardSite {
	ir := p.IR()

	type taint map[string]bool
	join := func(dst *taint, src taint) bool {
		if len(src) == 0 {
			return false
		}
		if *dst == nil {
			*dst = make(taint, len(src))
		}
		changed := false
		for k := range src {
			if !(*dst)[k] {
				(*dst)[k] = true
				changed = true
			}
		}
		return changed
	}

	// entry[fi][bi][r] is the taint of register r at block entry.
	entry := make([][][NumRegs]taint, len(ir.Funcs))
	for fi := range ir.Funcs {
		entry[fi] = make([][NumRegs]taint, len(ir.Funcs[fi].Blocks))
	}
	// exit[fi][r]: register taint at the function's Ret blocks, merged.
	exit := make([][NumRegs]taint, len(ir.Funcs))
	var memTaint taint

	siteSyms := map[[2]int]taint{}
	for changed := true; changed; {
		changed = false
		for fi := range ir.Funcs {
			f := &p.funcs[fi]
			fir := &ir.Funcs[fi]
			for bi := range fir.Blocks {
				b := &fir.Blocks[bi]
				var regs [NumRegs]taint
				for r := range regs {
					join(&regs[r], entry[fi][bi][r])
				}
				for idx := b.Start; idx < b.End; idx++ {
					in := &f.Instrs[idx]
					switch {
					case in.Op == OpSym:
						regs[in.Rd] = taint{in.Sym: true}
					case in.Op == OpMov || in.Op == OpNot:
						regs[in.Rd] = nil
						join(&regs[in.Rd], regs[in.Ra])
					case in.Op.IsBinary():
						var t taint
						join(&t, regs[in.Ra])
						if !in.BImm {
							join(&t, regs[in.Rb])
						}
						regs[in.Rd] = t
					case in.Op == OpLoad:
						regs[in.Rd] = nil
						join(&regs[in.Rd], memTaint)
					case in.Op == OpStore:
						changed = join(&memTaint, regs[in.Rb]) || changed
					case in.Op == OpMovI || in.Op == OpNodeID || in.Op == OpTime:
						regs[in.Rd] = nil
					case in.Op == OpBrNZ || in.Op == OpBrZ:
						if len(regs[in.Ra]) > 0 {
							key := [2]int{fi, idx}
							t := siteSyms[key]
							changed = join(&t, regs[in.Ra]) || changed
							siteSyms[key] = t
						}
					case in.Op == OpCall:
						if in.Fn >= 0 && in.Fn < len(ir.Funcs) && len(ir.Funcs[in.Fn].Blocks) > 0 {
							for r := range regs {
								changed = join(&entry[in.Fn][0][r], regs[r]) || changed
							}
							// The return site sees the callee's exit taint.
							for r := range regs {
								join(&regs[r], exit[in.Fn][r])
							}
						}
					}
				}
				// Propagate to successors; Ret blocks feed the exit set.
				if b.End > b.Start && f.Instrs[b.End-1].Op == OpRet {
					for r := range regs {
						changed = join(&exit[fi][r], regs[r]) || changed
					}
				}
				for _, s := range b.Succs {
					for r := range regs {
						changed = join(&entry[fi][s][r], regs[r]) || changed
					}
				}
			}
		}
	}

	var sites []ShardSite
	for key, syms := range siteSyms {
		names := make([]string, 0, len(syms))
		for s := range syms {
			names = append(names, s)
		}
		sort.Strings(names)
		sites = append(sites, ShardSite{
			Fn:     key[0],
			FnName: p.funcs[key[0]].Name,
			PC:     key[1],
			Syms:   names,
		})
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].Fn != sites[j].Fn {
			return sites[i].Fn < sites[j].Fn
		}
		return sites[i].PC < sites[j].PC
	})
	return sites
}
