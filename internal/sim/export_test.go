package sim

import "time"

// CheckpointGrid, CheckpointPace and CheckpointFloor are the paced
// schedule's constants.
const (
	CheckpointGrid  = checkpointGrid
	CheckpointPace  = checkpointPace
	CheckpointFloor = checkpointFloor
)

// SetModelClock replaces the checkpoint pacer's clock with a model of the
// work done: perEvent for every processed event plus cost(states) for
// every checkpoint written, charged at the frontier size it was written
// at. Time then depends on the run alone, so a schedule can be asserted
// exactly.
func (e *Engine) SetModelClock(perEvent time.Duration, cost func(states int) time.Duration) {
	var charged int
	var spent time.Duration
	e.now = func() time.Time {
		for ; charged < e.own.Checkpoint.Written; charged++ {
			spent += cost(len(e.states))
		}
		return time.Unix(0, 0).Add(time.Duration(e.events)*perEvent + spent)
	}
	e.ckptDone = e.now() // the engine was built at this clock's present
}
