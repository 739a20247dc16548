package vm

// The compiled-IR concrete fast path. When execution reaches the leader
// of a basic block the load-time compiler marked concretizable
// (isa.Block.Fast) and every register in the block's use set holds a
// concrete constant, the block runs here on raw uint64s — no
// expression-DAG consultation, no builder lock, no per-instruction
// dispatch through the symbolic machinery — and so does every fast block
// control reaches after it: the unit of commitment is the chain, not the
// block.
//
// A chain keeps a pending commit (fastChain): a raw register file with
// the sets of registers it knows and of registers it has written, and a
// buffer of the words it has stored, one entry per address. At every
// block boundary the pending commit laid over the state is exactly the
// interpreter's state at that leader, so the chain may stop at any
// boundary for any reason and materialize there: one Const per written
// register, one per stored word. A block that cannot finish (a symbolic
// word loaded mid-block, a store the buffer has no room for) is rolled
// back to its leader alone; the blocks before it commit and the
// interpreter takes the block from its first instruction. Because the
// expression builder hash-conses, the constants that survive to the
// commit are pointer-identical to what the interpreter would have left
// behind, and the intermediate values it would have interned along the
// way are unobservable: fingerprints, forks, sends and violations are
// bit-for-bit unchanged — enforced by the differential fuzzer and budget
// sweep in fastdiff_test.go and the on/off equivalence suite in
// internal/sim.

import (
	"sde/internal/isa"
)

const fastWordMask = 1<<WordBits - 1

// fastStoreCap bounds the chain's store buffer. A chain whose next store
// would be to a seventeenth distinct word ends at the boundary before
// that block; the buffer never grows on the heap.
const fastStoreCap = 16

// fastStore is one buffered memory write of a chain.
type fastStore struct {
	addr uint32
	val  uint64
}

// fastChain is the pending commit of a chain of fast blocks, valid at
// block boundaries: vals[r] is register r's value for every r in known
// (read from the state or written by the chain) and dirty ⊆ known is what
// the chain wrote; stores[:nstores] holds the stored words, each address
// once, oldest first.
type fastChain struct {
	vals         [isa.NumRegs]uint64
	known, dirty isa.RegSet
	stores       [fastStoreCap]fastStore
	nstores      int
}

// load reads a word for the fast path: the chain's own stores first,
// newest first, then the state's memory. ok is false when the word is
// symbolic or not word-sized — the abort signal.
func (c *fastChain) load(b *body, addr uint32) (uint64, bool) {
	for j := c.nstores - 1; j >= 0; j-- {
		if c.stores[j].addr == addr {
			return c.stores[j].val, true
		}
	}
	id := b.mem.load(addr)
	if id == 0 {
		return 0, true // untouched memory reads as concrete zero
	}
	w := b.ctx.Exprs.Node(id)
	if !w.IsConst() || w.Width() != WordBits {
		return 0, false
	}
	return w.ConstVal(), true
}

// store buffers a write, replacing an earlier one to the same address.
// ok is false when the buffer is full.
func (c *fastChain) store(addr uint32, val uint64) bool {
	for j := c.nstores - 1; j >= 0; j-- {
		if c.stores[j].addr == addr {
			c.stores[j].val = val
			return true
		}
	}
	if c.nstores == fastStoreCap {
		return false
	}
	c.stores[c.nstores] = fastStore{addr: addr, val: val}
	c.nstores++
	return true
}

// runFastChain executes fast blocks from the leader at (s.fn, s.pc) for
// as long as control stays on concretizable code, then commits what they
// did. It returns the number of instructions executed; remaining is the
// caller's instruction budget, which a chain never overruns — a block
// larger than what is left of it goes to the interpreter, so budget-kill
// behaviour is the interpreter's.
//
// handoff reports why the chain ended. True: the block now at s.pc cannot
// run here (not fast, a non-concrete live-in, a symbolic word loaded, more
// stores than the buffer holds, or longer than the budget left) and the
// interpreter must execute it. False: the activation returned, or the
// chain stopped where another chain may start (budget spent, buffer full,
// pc outside the function).
func (s *State) runFastChain(code *isa.ProgIR, remaining int, now uint64) (consumed int, handoff bool) {
	// The chain reads and commits through the body Run owns; nothing here
	// forks the state, so it stays the state's body throughout.
	b := s.body
	var c, leader fastChain // leader: c as of the running block's leader
	fn, pc := b.fn, b.pc
	blocks, folded, popped := 0, 0, 0

chain:
	for consumed < remaining {
		f := b.prog.Func(fn)
		fir := &code.Funcs[fn]
		bi := fir.BlockIndex(pc)
		if bi < 0 {
			break
		}
		blk := &fir.Blocks[bi]
		if !blk.Fast || blk.Len() > remaining-consumed {
			handoff = true
			break
		}

		// Live-ins the chain does not hold yet come from the state and
		// must be concrete.
		if need := blk.Use &^ c.known; need != 0 {
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if !need.Has(r) {
					continue
				}
				e := b.regs[r]
				if e == nil || !e.IsConst() {
					handoff = true
					break chain
				}
				c.vals[r] = e.ConstVal()
			}
			c.known |= need
		}

		// Only a load or a store can stop a block half-way.
		if blk.TouchesMem {
			leader = c
		}
		nextPC := blk.End
		ret := false
		blockFolded := 0
		for idx := blk.Start; idx < blk.End; idx++ {
			in := &f.Instrs[idx]
			if blk.Folded != nil && blk.Folded[idx-blk.Start].Known {
				// Load-time constant folding already computed this result.
				c.vals[in.Rd] = blk.Folded[idx-blk.Start].Val
				blockFolded++
				continue
			}
			switch in.Op {
			case isa.OpNop:

			case isa.OpMovI:
				c.vals[in.Rd] = uint64(in.Imm)

			case isa.OpMov:
				c.vals[in.Rd] = c.vals[in.Ra]

			case isa.OpNot:
				c.vals[in.Rd] = ^c.vals[in.Ra] & fastWordMask

			case isa.OpLoad:
				v, ok := c.load(b, uint32(c.vals[in.Ra])+in.Imm)
				if !ok {
					c = leader
					handoff = true
					break chain
				}
				c.vals[in.Rd] = v

			case isa.OpStore:
				if !c.store(uint32(c.vals[in.Ra])+in.Imm, c.vals[in.Rb]) {
					// With earlier blocks' stores out of the way the block
					// may fit; one that fills the buffer alone never will.
					handoff = leader.nstores == 0
					c = leader
					break chain
				}

			case isa.OpNodeID:
				c.vals[in.Rd] = uint64(s.node) & fastWordMask

			case isa.OpTime:
				c.vals[in.Rd] = now & 0xffffffff

			case isa.OpJmp:
				nextPC = in.Target

			case isa.OpBrNZ, isa.OpBrZ:
				if (c.vals[in.Ra] != 0) == (in.Op == isa.OpBrNZ) {
					nextPC = in.Target
				}

			case isa.OpRet:
				ret = true

			default:
				y := uint64(in.Imm)
				if !in.BImm {
					y = c.vals[in.Rb]
				}
				c.vals[in.Rd] = isa.EvalALU(in.Op, c.vals[in.Ra], y)
			}
		}

		// The block is done: fold it into the pending commit.
		c.known |= blk.Def
		c.dirty |= blk.Def
		consumed += blk.Len()
		folded += blockFolded
		blocks++
		switch {
		case !ret:
			// Collapse a Jmp-only chain at the landing point when the
			// budget covers the (still counted) intermediate Jmp steps.
			if to, hops := fir.ResolveJmp(nextPC); hops > 0 && consumed+hops <= remaining {
				nextPC = to
				consumed += hops
			}
			pc = nextPC
		case popped < len(b.frames):
			popped++
			top := b.frames[len(b.frames)-popped]
			fn, pc = top.fn, top.pc
		default:
			// The activation returns. The interpreter leaves fn at -1 and
			// pc at the Ret instruction (always the block's last); match
			// it so idle-state fingerprints are identical.
			fn, pc = -1, blk.End-1
			break chain
		}
	}

	if blocks == 0 {
		return 0, handoff // nothing to commit
	}

	// Commit: materialize what the chain wrote. The builder hash-conses,
	// so these are the same nodes the interpreter would have left in the
	// registers and in memory.
	eb := b.ctx.Exprs
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if c.dirty.Has(r) {
			b.regs[r] = eb.Const(c.vals[r], WordBits)
		}
	}
	for _, st := range c.stores[:c.nstores] {
		b.mem.store(st.addr, eb.Const(st.val, WordBits).ID())
	}
	b.frames = b.frames[:len(b.frames)-popped]
	b.fn, b.pc = fn, pc
	if fn < 0 {
		b.status = StatusIdle
	}
	b.steps += uint64(consumed)
	b.ctx.instrCount.Add(uint64(consumed))
	b.ctx.fastBlocks.Add(uint64(blocks))
	if folded > 0 {
		b.ctx.foldedInstrs.Add(uint64(folded))
	}
	return consumed, handoff
}
