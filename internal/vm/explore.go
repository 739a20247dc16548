package vm

import (
	"fmt"
	"slices"

	"sde/internal/expr"
	"sde/internal/isa"
)

// PathResult describes one completed execution path of a single-program
// exploration: its final state, path condition, and a concrete test case
// (paper Figure 1: one test case per explored path).
type PathResult struct {
	State    *State
	PathCond []*expr.Expr
	TestCase expr.Env
	Trace    []TraceEntry
}

// ExploreReport aggregates a full single-program exploration.
type ExploreReport struct {
	Paths        []PathResult
	Violations   []*Violation
	Instructions uint64
}

// ExploreOptions tunes Explore.
type ExploreOptions struct {
	// MaxPaths aborts the exploration after this many completed paths;
	// zero means unlimited.
	MaxPaths int
	// StepBudget bounds instructions per activation; zero selects
	// DefaultStepBudget.
	StepBudget int
	// DisableCompiledIR turns the basic-block compiled fast path off for
	// this exploration (see Context.SetCompiledIR). Compiled and
	// interpreted explorations produce identical paths and test cases.
	DisableCompiledIR bool
}

// Explore symbolically executes a single program from the given entry
// function to completion, following every feasible path (regular symbolic
// execution, paper §II-A). It is the single-node special case of SDE:
// no network, no state mapping.
func Explore(ctx *Context, prog *isa.Program, entry string, opts ExploreOptions) (*ExploreReport, error) {
	fnIdx := prog.FuncIndex(entry)
	if fnIdx < 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoBoot, entry)
	}
	if opts.DisableCompiledIR {
		ctx.SetCompiledIR(false)
	}
	report := &ExploreReport{}
	collector := &exploreHooks{ctx: ctx, report: report}

	root := NewState(ctx, prog, 0)
	root.StartCall(fnIdx)
	stack := []*State{root}

	startInstr := ctx.Instructions()
	for len(stack) > 0 {
		if opts.MaxPaths > 0 && len(report.Paths) >= opts.MaxPaths {
			break
		}
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		collector.pending = collector.pending[:0]
		if err := s.Run(0, opts.StepBudget, collector); err != nil {
			return nil, fmt.Errorf("vm: explore: %w", err)
		}
		if collector.err != nil {
			return nil, fmt.Errorf("vm: explore: witness: %w", collector.err)
		}
		// Depth-first: siblings forked during this run are explored next.
		stack = append(stack, collector.pending...)
		switch s.Status() {
		case StatusIdle, StatusHalted:
			model, sat, err := ctx.Solver.Witness(s.PathCond())
			if err != nil {
				return nil, fmt.Errorf("vm: explore: test case: %w", err)
			}
			if !sat {
				return nil, fmt.Errorf("vm: explore: completed path has unsat condition")
			}
			report.Paths = append(report.Paths, PathResult{
				State:    s,
				PathCond: s.PathCond(),
				TestCase: model,
				Trace:    s.Trace(),
			})
		case StatusDead:
			// Infeasible assume or runtime error: path abandoned.
		}
	}
	report.Instructions = ctx.Instructions() - startInstr
	return report, nil
}

type exploreHooks struct {
	ctx     *Context
	report  *ExploreReport
	pending []*State
	err     error // the first witness solve that failed
}

func (h *exploreHooks) OnFork(_, sibling *State) {
	h.pending = append(h.pending, sibling)
}

func (h *exploreHooks) OnSend(*State, uint32, []*expr.Expr) {
	// Single-node exploration has no network; transmissions vanish.
}

// OnViolation solves the violation's witness over the violating path:
// single-node exploration has no wider view.
func (h *exploreHooks) OnViolation(s *State, v *Violation) {
	model, sat, err := h.ctx.Solver.Witness(append(slices.Clip(s.PathCond()), v.Cond))
	if err == nil && !sat {
		err = fmt.Errorf("%q at t=%d: the violating path has no witness", v.Msg, v.Time)
	}
	if h.err == nil {
		h.err = err
	}
	v.Model = model
	h.report.Violations = append(h.report.Violations, v)
}
