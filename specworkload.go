package sde

import "fmt"

// SpeculationWorkloadOptions parameterises SpeculationWorkloadScenario.
type SpeculationWorkloadOptions struct {
	// Algorithm is the state mapping algorithm (default SDS; COB is fine
	// too — the workload sends no packets, so the mapper only sees local
	// forks).
	Algorithm Algorithm

	// Depth is the length of the entangled assume chain each activation
	// executes (default 10).
	Depth int

	// Activations is how many timer activations each node runs
	// (default 2).
	Activations int

	// Width is the bit width of the symbolic inputs feeding the chain
	// (default 8; wider inputs make each feasibility query harder).
	Width int
}

// SpeculationWorkloadScenario builds the speculative-pipeline benchmark
// workload: every activation draws a chain of fresh symbolic inputs and
// threads them through a multiply-accumulate, assuming a bound on the
// accumulator after every step. The constraints are deliberately
// entangled — each assume mentions every input drawn so far, so
// independence slicing cannot split the queries and every synchronous
// feasibility check must solve the whole chain so far. A synchronous run
// therefore pays Depth incremental solves per activation; the
// speculative pipeline defers them all to the end-of-activation barrier,
// where the deepest query is solved once and the shallower ones resolve
// by SAT-superset subsumption. A symbolic boot branch adds one
// both-feasible fork so the pair-speculation path is exercised too.
func SpeculationWorkloadScenario(o SpeculationWorkloadOptions) (Scenario, error) {
	if o.Algorithm == 0 {
		o.Algorithm = SDS
	}
	if o.Depth <= 0 {
		o.Depth = 10
	}
	if o.Activations <= 0 {
		o.Activations = 2
	}
	if o.Width <= 0 {
		o.Width = 8
	}
	if o.Width > 32 {
		return Scenario{}, fmt.Errorf("sde: speculation workload width %d exceeds 32", o.Width)
	}

	b := NewProgramBuilder()
	boot := b.Func("boot")
	// One both-feasible symbolic branch: both sides rejoin immediately,
	// so the fork doubles the population without diverging control flow.
	boot.Sym(R5, "flip", 1)
	boot.BrNZ(R5, "go")
	boot.Label("go")
	boot.MovI(R1, 1)
	boot.Timer("step", R1, R0)
	boot.Ret()

	step := b.Func("step")
	// Activation counter (concrete, so the re-arm branch never forks).
	step.MovI(R3, 0)
	step.Load(R4, R3, 0x40)
	step.AddI(R4, R4, 1)
	step.Store(R3, 0x40, R4)
	// Entangled assume chain. Every level adds a fresh symbolic input
	// into the accumulator and assumes a bound k_i <= acc with k_i
	// fresh: the running sum entangles every level with all earlier
	// inputs (so slicing cannot split the queries), and the bound is
	// satisfiable for any accumulator value (k_i = 0 works), so no
	// assume ever kills a state. The all-zeros assignment satisfies the
	// whole chain, which keeps every query nearly search-free — its
	// solve cost is the per-call decision and bookkeeping sweep over
	// however much of the chain it spans. A synchronous run pays that
	// sweep at every level of a growing instance (quadratic in Depth);
	// the pipeline pays it once per barrier.
	step.Sym(R6, "seed", uint32(o.Width))
	for i := 0; i < o.Depth; i++ {
		step.Sym(R7, "m", uint32(o.Width))
		step.Add(R6, R6, R7)
		step.Sym(R10, "k", 32)
		step.Ule(R9, R10, R6)
		step.Assume(R9)
	}
	step.UltI(R8, R4, uint32(o.Activations))
	step.BrZ(R8, "stop")
	step.MovI(R1, 1)
	step.Timer("step", R1, R0)
	step.Label("stop")
	step.Ret()

	prog, err := b.Build()
	if err != nil {
		return Scenario{}, fmt.Errorf("sde: speculation workload: %w", err)
	}
	s, err := CustomScenario(
		fmt.Sprintf("speculation workload: line:2 depth=%d activations=%d width=%d",
			o.Depth, o.Activations, o.Width),
		CustomConfig{
			Topology:     Line(2),
			Program:      prog,
			Algorithm:    o.Algorithm,
			HorizonTicks: uint64(o.Activations) + 5,
		})
	if err != nil {
		return Scenario{}, err
	}
	// Counterexample reuse would answer the whole chain from the first
	// model in both modes; it is disabled (uniformly) so the benchmark
	// isolates what the pipeline schedules — the real per-solve cost of
	// the query stream.
	return s.WithSolverOptions(SolverOptions{DisablePool: true}), nil
}
