// Package trace implements the post-processing stage of SDE: turning the
// compact symbolic representation of a finished run into concrete test
// cases, and replaying a test case as a deterministic concrete execution.
//
// This is the paper's §IV-C workflow: "If someone wants to gather the test
// cases for all nodes in all dscenarios, the compact systems'
// representation provided by the SDS algorithm has to be 'exploded' to the
// output of COB to generate concrete test case values. ... [this] can be
// done incrementally, i.e., by forking states for a dscenario, generating
// test cases, and deleting the states in one step."
package trace

import (
	"fmt"
	"sort"
	"strings"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/sim"
	"sde/internal/vm"
)

// NodeSnapshot captures one node's state within a dscenario.
type NodeSnapshot struct {
	Node        int
	StateID     uint64
	Constraints int // size of the state's path condition
	Receptions  int // received packets in the communication history
	Sends       int // sent packets in the communication history
}

// TestCase is a concrete input assignment that steers a concrete execution
// into one particular dscenario.
type TestCase struct {
	Index  int
	Inputs expr.Env // value per symbolic input (absent = don't care = 0)
	Nodes  []NodeSnapshot
}

// Vars lists the test case's input names in sorted order.
func (tc TestCase) Vars() []string {
	names := make([]string, 0, len(tc.Inputs))
	for name := range tc.Inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// String renders the test case compactly for reports.
func (tc TestCase) String() string {
	s := fmt.Sprintf("testcase %d:", tc.Index)
	for _, name := range tc.Vars() {
		s += fmt.Sprintf(" %s=%d", name, tc.Inputs[name])
	}
	return s
}

// Stream explodes up to limit dscenarios (limit <= 0 = all) of a finished
// run and invokes fn once per dscenario with its solved test case. The
// enumeration is incremental (core.Mapper.ExplodeFunc): one dscenario is
// materialised, solved, and discarded at a time, so memory stays bounded
// regardless of the dscenario count — the paper's §VI plan.
func Stream(m core.Mapper[*vm.State], ctx *vm.Context, limit int, fn func(tc TestCase) error) error {
	var callbackErr error
	index := 0
	m.ExplodeFunc(limit, func(sc []*vm.State) bool {
		// The dscenario's combined path condition: the union of all
		// member constraints. Conflict-freedom makes it satisfiable.
		var combined []*expr.Expr
		nodes := make([]NodeSnapshot, 0, len(sc))
		for _, s := range sc {
			combined = append(combined, s.PathCond()...)
			recv, sent := 0, 0
			for _, h := range s.History() {
				if h.Dir == vm.DirRecv {
					recv++
				} else {
					sent++
				}
			}
			nodes = append(nodes, NodeSnapshot{
				Node:        s.NodeID(),
				StateID:     s.ID(),
				Constraints: len(s.PathCond()),
				Receptions:  recv,
				Sends:       sent,
			})
		}
		model, sat, err := ctx.Solver.Witness(combined)
		if err != nil {
			callbackErr = fmt.Errorf("trace: dscenario %d: %w", index, err)
			return false
		}
		if !sat {
			callbackErr = fmt.Errorf("trace: dscenario %d has contradictory constraints", index)
			return false
		}
		if err := fn(TestCase{Index: index, Inputs: model, Nodes: nodes}); err != nil {
			callbackErr = err
			return false
		}
		index++
		return true
	})
	return callbackErr
}

// Generate collects up to limit test cases (limit <= 0 = all).
func Generate(m core.Mapper[*vm.State], ctx *vm.Context, limit int) ([]TestCase, error) {
	var out []TestCase
	err := Stream(m, ctx, limit, func(tc TestCase) error {
		out = append(out, tc)
		return nil
	})
	return out, err
}

// FromResult generates test cases from an engine result.
func FromResult(res *sim.Result, limit int) ([]TestCase, error) {
	return Generate(res.Mapper, res.Ctx, limit)
}

// Replay re-executes a scenario concretely under the given inputs: the
// same configuration, but symbolic choices resolved by the test case.
// Exactly one execution path is followed, yielding one state per node —
// the deterministic replay the paper's introduction motivates.
func Replay(cfg sim.Config, inputs expr.Env) (*sim.Result, error) {
	cfg.Replay = inputs
	cfg.CheckInvariants = false
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("trace: replay: %w", err)
	}
	res, err := eng.Run()
	if err != nil {
		return nil, fmt.Errorf("trace: replay: %w", err)
	}
	return res, nil
}

// ReplayViolation replays the concrete witness of a violation and reports
// whether the same assertion fires again.
func ReplayViolation(cfg sim.Config, v *vm.Violation) (reproduced bool, res *sim.Result, err error) {
	res, err = Replay(cfg, v.Model)
	if err != nil {
		return false, nil, err
	}
	for _, got := range res.Violations {
		if got.Msg == v.Msg && got.Node == v.Node {
			return true, res, nil
		}
	}
	return false, res, nil
}

// MinimizeWitness shrinks a violation's witness to the failure decisions
// that are actually needed to reproduce it: every failure-branch variable
// (value 0) is flipped to the no-failure side one at a time, and flips
// that still reproduce the violation are kept — one-minimal delta
// debugging over concrete replays. The result replays the violation with
// the fewest injected failures, sharpening the paper's "narrow down their
// root-causes" workflow.
//
// The returned environment contains the original witness with the
// unnecessary failures disabled (set to 1). needed lists the variables
// that remained on the failure branch.
func MinimizeWitness(cfg sim.Config, v *vm.Violation) (minimal expr.Env, needed []string, err error) {
	current := make(expr.Env, len(v.Model))
	for name, val := range v.Model {
		current[name] = val
	}
	reproduces := func(env expr.Env) (bool, error) {
		res, err := Replay(cfg, env)
		if err != nil {
			return false, err
		}
		for _, got := range res.Violations {
			if got.Msg == v.Msg && got.Node == v.Node {
				return true, nil
			}
		}
		return false, nil
	}
	ok, err := reproduces(current)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, fmt.Errorf("trace: witness does not reproduce the violation")
	}
	// Deterministic flip order.
	names := make([]string, 0, len(current))
	for name, val := range current {
		if val == 0 && isFailureVar(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		current[name] = 1 // try the no-failure side
		ok, err := reproduces(current)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			current[name] = 0 // this failure is load-bearing
			needed = append(needed, name)
		}
	}
	return current, needed, nil
}

// isFailureVar recognises the failure-model decision variables by their
// engine-assigned name prefixes.
func isFailureVar(name string) bool {
	for _, prefix := range []string{"drop_n", "dup_n", "reboot_n"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
