package sde_test

import (
	"fmt"
	"testing"

	"sde"
)

// speculationWorkload builds the speculative-pipeline workload of
// TestSpeculationWorkloadSoundness and BenchmarkSpeculativePipeline: two
// SDS nodes, each running two timer activations that draw a chain of
// depth fresh 8-bit symbolic inputs and thread them through a
// multiply-accumulate, assuming a bound on the accumulator after every
// step. The constraints are deliberately entangled — each assume mentions
// every input drawn so far, so independence slicing cannot split the
// queries and every synchronous feasibility check must solve the whole
// chain so far. A synchronous run therefore pays depth incremental solves
// per activation; the speculative pipeline defers them all to the
// end-of-activation barrier, where the deepest query is solved once and
// the shallower ones resolve by SAT-superset subsumption. A symbolic boot
// branch adds one both-feasible fork so the pair-speculation path is
// exercised too.
func speculationWorkload(tb testing.TB, depth int) sde.Scenario {
	tb.Helper()
	const (
		activations = 2
		width       = 8
	)

	b := sde.NewProgramBuilder()
	boot := b.Func("boot")
	// One both-feasible symbolic branch: both sides rejoin immediately,
	// so the fork doubles the population without diverging control flow.
	boot.Sym(sde.R5, "flip", 1)
	boot.BrNZ(sde.R5, "go")
	boot.Label("go")
	boot.MovI(sde.R1, 1)
	boot.Timer("step", sde.R1, sde.R0)
	boot.Ret()

	step := b.Func("step")
	// Activation counter (concrete, so the re-arm branch never forks).
	step.MovI(sde.R3, 0)
	step.Load(sde.R4, sde.R3, 0x40)
	step.AddI(sde.R4, sde.R4, 1)
	step.Store(sde.R3, 0x40, sde.R4)
	// Entangled assume chain. Every level adds a fresh symbolic input
	// into the accumulator and assumes a bound k_i <= acc with k_i
	// fresh: the running sum entangles every level with all earlier
	// inputs (so slicing cannot split the queries), and the bound is
	// satisfiable for any accumulator value (k_i = 0 works), so no
	// assume ever kills a state. The all-zeros assignment satisfies the
	// whole chain, which keeps every query nearly search-free — its
	// solve cost is the per-call decision and bookkeeping sweep over
	// however much of the chain it spans. A synchronous run pays that
	// sweep at every level of a growing instance (quadratic in depth);
	// the pipeline pays it once per barrier.
	step.Sym(sde.R6, "seed", width)
	for i := 0; i < depth; i++ {
		step.Sym(sde.R7, "m", width)
		step.Add(sde.R6, sde.R6, sde.R7)
		step.Sym(sde.R10, "k", 32)
		step.Ule(sde.R9, sde.R10, sde.R6)
		step.Assume(sde.R9)
	}
	step.UltI(sde.R8, sde.R4, activations)
	step.BrZ(sde.R8, "stop")
	step.MovI(sde.R1, 1)
	step.Timer("step", sde.R1, sde.R0)
	step.Label("stop")
	step.Ret()

	prog, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	s, err := sde.CustomScenario(
		fmt.Sprintf("speculation workload: line:2 depth=%d activations=%d width=%d",
			depth, activations, width),
		sde.CustomConfig{
			Topology:     sde.Line(2),
			Program:      prog,
			Algorithm:    sde.SDS,
			HorizonTicks: activations + 5,
		})
	if err != nil {
		tb.Fatal(err)
	}
	// Counterexample reuse would answer the whole chain from the first
	// model in both modes; it is disabled (uniformly) so the benchmark
	// isolates what the pipeline schedules — the real per-solve cost of
	// the query stream.
	return s.WithSolverOptions(sde.SolverOptions{DisablePool: true})
}
