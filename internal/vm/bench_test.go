package vm

import (
	"fmt"
	"testing"

	"sde/internal/isa"
)

func benchProgram(b *testing.B, f func(pb *isa.Builder)) *isa.Program {
	b.Helper()
	pb := isa.NewBuilder()
	f(pb)
	prog, err := pb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// benchLoop builds the tight arithmetic loop both execution-throughput
// benchmarks share.
func benchLoop(b *testing.B, iters uint32) *isa.Program {
	return benchProgram(b, func(pb *isa.Builder) {
		f := pb.Func("main")
		f.MovI(isa.R1, iters)
		f.MovI(isa.R2, 0)
		f.Label("loop")
		f.Add(isa.R2, isa.R2, isa.R1)
		f.XorI(isa.R3, isa.R2, 0x5a)
		f.SubI(isa.R1, isa.R1, 1)
		f.BrNZ(isa.R1, "loop")
		f.Ret()
	})
}

func runLoopBench(b *testing.B, compile bool) {
	const iters = 1000
	prog := benchLoop(b, iters)
	ctx := NewContext()
	ctx.SetCompiledIR(compile)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewState(ctx, prog, 0)
		s.StartCall(prog.FuncIndex("main"))
		if err := s.Run(0, 0, NopHooks{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / (4 * iters)
	b.ReportMetric(perOp, "ns/instr")
}

// BenchmarkInterpreterLoop measures raw concrete execution throughput of
// the per-instruction interpreter: a tight arithmetic loop with the
// compiled fast path disabled, reported as ns per instruction.
func BenchmarkInterpreterLoop(b *testing.B) { runLoopBench(b, false) }

// BenchmarkCompiledLoop is the same loop through the chained compiled
// fast path — the before/after pair for the load-time compiler.
func BenchmarkCompiledLoop(b *testing.B) { runLoopBench(b, true) }

// BenchmarkFork measures state duplication cost — the operation the state
// mapping algorithms amplify.
func BenchmarkFork(b *testing.B) {
	prog := benchProgram(b, func(pb *isa.Builder) { pb.Func("f").Ret() })
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	// A realistic footprint: config words, packet buffers, history.
	for i := uint32(0); i < 64; i++ {
		s.StoreWord(i*17, ctx.Exprs.Const(uint64(i), WordBits))
	}
	for i := 0; i < 20; i++ {
		s.RecordSend(1, uint64(i), uint64(i))
	}
	s.PushEvent(Event{Time: 1, Kind: EventTimer, Fn: 0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Fork().Release()
	}
}

// measuredState builds a state of the shape the benchmark's workloads fork:
// 3 pages, 4 constraints, 4 history entries, 1 pending event (the averages
// counted at every fork of every row are at or below this).
func measuredState(tb testing.TB) (*Context, *State) {
	pb := isa.NewBuilder()
	pb.Func("f").Ret()
	prog, err := pb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	ctx := NewContext()
	eb := ctx.Exprs
	s := NewState(ctx, prog, 0)
	for i := uint32(0); i < 3; i++ {
		s.StoreWord(i*0x100, eb.Const(uint64(i)+1, WordBits))
	}
	for i := 0; i < 4; i++ {
		s.AddConstraint(eb.Var(fmt.Sprintf("d%d", i), 1))
		s.RecordRecv(1, uint64(i), uint32(i), uint64(i), uint64(i))
	}
	s.PushEvent(Event{Time: 9, Kind: EventTimer, Fn: 0})
	return ctx, s
}

// BenchmarkForkMeasured is BenchmarkFork on the shape the workloads fork;
// BenchmarkFork's 17 pages and 20 sends are five times what any row holds.
func BenchmarkForkMeasured(b *testing.B) {
	_, s := measuredState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Fork().Release()
	}
}

// BenchmarkForkWriteCOW measures a fork followed by a write (the page
// copy-on-write split).
func BenchmarkForkWriteCOW(b *testing.B) {
	prog := benchProgram(b, func(pb *isa.Builder) { pb.Func("f").Ret() })
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	v := ctx.Exprs.Const(7, WordBits)
	for i := uint32(0); i < 8; i++ {
		s.StoreWord(i*100, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := s.Fork()
		cp.StoreWord(0, v)
		cp.Release()
	}
}

// BenchmarkSymbolicBranch measures the full fork-at-branch path including
// the two feasibility queries.
func BenchmarkSymbolicBranch(b *testing.B) {
	prog := benchProgram(b, func(pb *isa.Builder) {
		f := pb.Func("main")
		f.Sym(isa.R1, "x", 1)
		f.BrNZ(isa.R1, "t")
		f.Label("t")
		f.Ret()
	})
	ctx := NewContext()
	hooks := NopHooks{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewState(ctx, prog, 0)
		s.StartCall(prog.FuncIndex("main"))
		if err := s.Run(0, 0, hooks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprint measures configuration hashing, the duplicate
// detection and equivalence-oracle primitive.
func BenchmarkFingerprint(b *testing.B) {
	prog := benchProgram(b, func(pb *isa.Builder) { pb.Func("f").Ret() })
	ctx := NewContext()
	s := NewState(ctx, prog, 0)
	for i := uint32(0); i < 128; i++ {
		s.StoreWord(i*5, ctx.Exprs.Const(uint64(i)+1, WordBits))
	}
	for i := 0; i < 30; i++ {
		s.RecordRecv(2, uint64(i), uint32(i), uint64(i), uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Fingerprint()
	}
}
