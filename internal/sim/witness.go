package sim

import (
	"errors"
	"fmt"
	"slices"

	"sde/internal/expr"
	"sde/internal/vm"
)

// Violation witnesses are solved off the interpreter thread. OnViolation
// gathers the constraints a witness is a function of while the mapper still
// describes the violating state's dscenario, and hands the solve to a
// goroutine: the interpreter goes on at once. Every reader of a violation's
// model joins first — Snapshot before it copies the violations (periodic
// checkpoints, suspensions, leases), RunItem before the final snapshot and
// Finish — so nothing observable depends on when a solve finished.

// witnessJob is one violation whose model is being solved.
type witnessJob struct {
	v   *vm.Violation
	err error // set by the solving goroutine before it signals the group
}

// solveWitness starts the solve of v's witness. The model is the
// canonical witness (solver.Witness) of the violating state's whole
// dscenario — one consistent state per node, so the test case pins the
// other nodes' decisions too — plus v.Cond, falling back to the state's own
// path condition plus v.Cond when that conjunction is unsatisfiable or the
// mapper has no dscenario for the state.
func (e *Engine) solveWitness(s *vm.State, v *vm.Violation) {
	local := append(slices.Clip(s.PathCond()), v.Cond)
	var scenario []*expr.Expr
	if members, ok := e.mapper.ScenarioFor(s); ok {
		for _, m := range members {
			scenario = append(scenario, m.PathCond()...)
		}
		scenario = append(scenario, v.Cond)
	}
	job := &witnessJob{v: v}
	e.witnessJobs = append(e.witnessJobs, job)
	e.witnessSlots <- struct{}{}
	e.witnessWG.Add(1)
	go func() {
		defer func() {
			<-e.witnessSlots
			e.witnessWG.Done()
		}()
		job.err = e.witness(v, scenario, local)
	}()
}

// witness solves and installs v's model; see solveWitness.
func (e *Engine) witness(v *vm.Violation, scenario, local []*expr.Expr) error {
	sv := e.ctx.Solver
	if scenario != nil {
		model, sat, err := sv.Witness(scenario)
		if err != nil {
			return err
		}
		if sat {
			v.Model = model
			return nil
		}
	}
	model, sat, err := sv.Witness(local)
	if err != nil {
		return err
	}
	if !sat {
		return errors.New("the violating path has no witness")
	}
	v.Model = model
	return nil
}

// joinWitnesses waits for every witness in flight and returns the failure
// of the earliest violation whose witness failed, if any. The failure
// sticks: every later join returns it too.
func (e *Engine) joinWitnesses() error {
	e.witnessWG.Wait()
	for _, job := range e.witnessJobs {
		if job.err != nil && e.witnessErr == nil {
			v := job.v
			e.witnessErr = fmt.Errorf("sim: witness of node %d at t=%d (%q): %w", v.Node, v.Time, v.Msg, job.err)
		}
	}
	e.witnessJobs = e.witnessJobs[:0]
	return e.witnessErr
}
