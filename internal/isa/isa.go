// Package isa defines the instruction set executed by the symbolic virtual
// machine, together with a Go-hosted program builder (assembler) and a
// disassembler.
//
// The ISA is a small 32-bit register machine: 16 general-purpose registers,
// word-addressed memory, structured call/return, and a handful of runtime
// services (symbolic input, assertions, packet transmission, timers). It
// plays the role LLVM bitcode plays for KLEE: node software — the Rime-like
// protocol stack and the sensornet applications — is written against this
// ISA and executed symbolically, unmodified, by package vm.
package isa

import (
	"fmt"
	"strings"
)

// Reg names one of the 16 general-purpose registers R0..R15.
type Reg uint8

// General-purpose registers. By convention R0..R2 carry handler arguments
// and R0 carries a function's return value.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

// NumRegs is the number of general-purpose registers.
const NumRegs = 16

// BroadcastAddr is the destination address that selects link-layer
// broadcast; the network model expands it to one unicast per neighbour of
// the sending node (paper §II-B, footnote 1).
const BroadcastAddr = 0xffffffff

// Op is an instruction opcode.
type Op uint8

// Opcodes. The zero value is invalid.
const (
	OpNop Op = iota + 1

	// Data movement.
	OpMovI // Rd = Imm
	OpMov  // Rd = Ra

	// Binary arithmetic/logic: Rd = Ra <op> SrcB, where SrcB is Rb or Imm.
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	OpNot // Rd = ^Ra

	// Comparisons: Rd = (Ra <op> SrcB) ? 1 : 0.
	OpEq
	OpNe
	OpUlt
	OpUle
	OpSlt
	OpSle

	// Control flow.
	OpJmp  // pc = Target
	OpBrNZ // if Ra != 0: pc = Target (forks when Ra is symbolic)
	OpBrZ  // if Ra == 0: pc = Target (forks when Ra is symbolic)
	OpCall // call Fn; on return execution resumes at the next instruction
	OpRet  // return from the current function / end the event handler
	OpHalt // node halts permanently (drops all pending events)

	// Memory: word-addressed.
	OpLoad  // Rd = mem[Ra + Imm]
	OpStore // mem[Ra + Imm] = Rb

	// Runtime services.
	OpSym    // Rd = fresh symbolic value named Sym, width Imm bits
	OpAssert // if Ra may be zero: report violation Sym; continue with Ra != 0
	OpAssume // constrain Ra != 0; the state dies if infeasible
	OpSend   // transmit mem[Rb .. Rb+Imm) to node Ra (BroadcastAddr = broadcast)
	OpTimer  // schedule handler Fn with argument Rb at now + Ra ticks
	OpNodeID // Rd = this node's id
	OpTime   // Rd = low 32 bits of the virtual clock
	OpPrint  // append (Sym, Ra) to the state's diagnostic trace
)

var opNames = map[Op]string{
	OpNop: "nop", OpMovI: "movi", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpUDiv: "udiv", OpURem: "urem",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr", OpNot: "not",
	OpEq: "eq", OpNe: "ne", OpUlt: "ult", OpUle: "ule", OpSlt: "slt", OpSle: "sle",
	OpJmp: "jmp", OpBrNZ: "brnz", OpBrZ: "brz", OpCall: "call", OpRet: "ret",
	OpHalt: "halt", OpLoad: "load", OpStore: "store",
	OpSym: "sym", OpAssert: "assert", OpAssume: "assume", OpSend: "send",
	OpTimer: "timer", OpNodeID: "nodeid", OpTime: "time", OpPrint: "print",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBinary reports whether the opcode is a two-operand ALU or comparison
// instruction whose second operand may be a register or an immediate.
func (o Op) IsBinary() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpUDiv, OpURem, OpAnd, OpOr, OpXor,
		OpShl, OpLShr, OpAShr, OpEq, OpNe, OpUlt, OpUle, OpSlt, OpSle:
		return true
	}
	return false
}

// Instr is one decoded instruction. Fields are used according to the
// opcode; see the Op constants.
type Instr struct {
	Op         Op
	Rd, Ra, Rb Reg
	Imm        uint32 // immediate operand / memory offset / width / length
	BImm       bool   // binary ops: second operand is Imm, not Rb
	Target     int    // Jmp/BrNZ/BrZ: resolved instruction index
	Fn         int    // Call/Timer: resolved function index
	Sym        string // Sym: variable name; Assert/Print: message
}

// String renders the instruction in assembly-like form.
func (in Instr) String() string {
	b2 := func() string {
		if in.BImm {
			return fmt.Sprintf("#%d", in.Imm)
		}
		return fmt.Sprintf("r%d", in.Rb)
	}
	switch {
	case in.Op == OpNop || in.Op == OpRet || in.Op == OpHalt:
		return in.Op.String()
	case in.Op == OpMovI:
		return fmt.Sprintf("movi r%d, #%d", in.Rd, in.Imm)
	case in.Op == OpMov:
		return fmt.Sprintf("mov r%d, r%d", in.Rd, in.Ra)
	case in.Op.IsBinary():
		return fmt.Sprintf("%s r%d, r%d, %s", in.Op, in.Rd, in.Ra, b2())
	case in.Op == OpNot:
		return fmt.Sprintf("not r%d, r%d", in.Rd, in.Ra)
	case in.Op == OpJmp:
		return fmt.Sprintf("jmp @%d", in.Target)
	case in.Op == OpBrNZ:
		return fmt.Sprintf("brnz r%d, @%d", in.Ra, in.Target)
	case in.Op == OpBrZ:
		return fmt.Sprintf("brz r%d, @%d", in.Ra, in.Target)
	case in.Op == OpCall:
		return fmt.Sprintf("call fn%d", in.Fn)
	case in.Op == OpLoad:
		return fmt.Sprintf("load r%d, [r%d+%d]", in.Rd, in.Ra, in.Imm)
	case in.Op == OpStore:
		return fmt.Sprintf("store [r%d+%d], r%d", in.Ra, in.Imm, in.Rb)
	case in.Op == OpSym:
		return fmt.Sprintf("sym r%d, %q, w%d", in.Rd, in.Sym, in.Imm)
	case in.Op == OpAssert:
		return fmt.Sprintf("assert r%d, %q", in.Ra, in.Sym)
	case in.Op == OpAssume:
		return fmt.Sprintf("assume r%d", in.Ra)
	case in.Op == OpSend:
		return fmt.Sprintf("send dst=r%d, buf=r%d, len=%d", in.Ra, in.Rb, in.Imm)
	case in.Op == OpTimer:
		return fmt.Sprintf("timer fn%d, delay=r%d, arg=r%d", in.Fn, in.Ra, in.Rb)
	case in.Op == OpNodeID:
		return fmt.Sprintf("nodeid r%d", in.Rd)
	case in.Op == OpTime:
		return fmt.Sprintf("time r%d", in.Rd)
	case in.Op == OpPrint:
		return fmt.Sprintf("print %q, r%d", in.Sym, in.Ra)
	default:
		return in.Op.String()
	}
}

// Func is a named instruction sequence. Execution enters at instruction 0
// and must leave via Ret, Halt, or a backwards Jmp; falling off the end is
// a build-time error.
type Func struct {
	Name   string
	Instrs []Instr
}

// Program is an immutable, validated bundle of functions — the unit of
// software a node runs.
type Program struct {
	funcs  []Func
	byName map[string]int

	// irc caches the lazily compiled basic-block IR (see ir.go).
	// Programs are only constructed by pointer, so the sync.Once inside
	// is never copied.
	irc irCache
}

// Func returns the function at index i.
func (p *Program) Func(i int) *Func { return &p.funcs[i] }

// NumFuncs returns the number of functions.
func (p *Program) NumFuncs() int { return len(p.funcs) }

// FuncIndex returns the index of the named function, or -1 if absent.
func (p *Program) FuncIndex(name string) int {
	if i, ok := p.byName[name]; ok {
		return i
	}
	return -1
}

// UsesNodeID reports whether any function in the program reads the node
// id. A program that never does — and has no per-node initial memory — is
// node-uniform: every node runs the same computation over its inputs, so
// topology automorphisms act on executions by pure relabeling. The
// symmetry layer uses this to decide when reduction is automatically
// applicable without a declared symmetry spec.
func (p *Program) UsesNodeID() bool {
	for fi := range p.funcs {
		for i := range p.funcs[fi].Instrs {
			if p.funcs[fi].Instrs[i].Op == OpNodeID {
				return true
			}
		}
	}
	return false
}

// Disasm renders the whole program as assembly text for diagnostics.
func (p *Program) Disasm() string {
	var sb strings.Builder
	for i := range p.funcs {
		f := &p.funcs[i]
		fmt.Fprintf(&sb, "fn%d %s:\n", i, f.Name)
		for j, in := range f.Instrs {
			fmt.Fprintf(&sb, "  %3d: %s\n", j, in.String())
		}
	}
	return sb.String()
}
