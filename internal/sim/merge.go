package sim

// Engine-side state merging (tentpole of internal/merge): the end-of-event
// merge scan, the pop-time ordering gate that makes merged execution
// bit-identical to unmerged execution, and the scheduling driver the merge
// manager splits members back through.
//
// The ordering argument: the event heap pops (time, stateID) ascending. A
// rep carries the id of its smallest member, so it pops exactly where that
// member would have. Executing the shared event once for all members is
// indistinguishable from executing it member by member as long as no
// OTHER state would, unmerged, have run between the members — i.e. no
// foreign state with an id strictly inside the rep's member-id span is due
// at the same timestamp. The gate checks exactly that and splits the rep
// otherwise, so the sequence of handler activations (and therefore every
// fork, solver query, violation, and fingerprint) is the unmerged one.

import (
	"sde/internal/vm"
)

// mergeExecOK decides whether rep s, due at time t, may execute through
// the shared event. It fails when a foreign state due at t has an id
// strictly inside the member span (unmerged interleaving would put it
// between the members), or when the event would trigger the failure
// models' first-reception forking (reps never fork).
func (e *Engine) mergeExecOK(s *vm.State, t uint64) bool {
	lo, hi, ok := e.mergeMgr.Span(s)
	if !ok {
		return false
	}
	for i := range e.evHeap {
		ent := &e.evHeap[i]
		if ent.time != t || ent.state == s {
			continue
		}
		if ent.stateID <= lo || ent.stateID >= hi {
			continue
		}
		// Live entry? Frozen members (no events) and superseded entries
		// drop out here, exactly as the pop loop would skip them.
		if ent.seq != e.entrySeq[ent.state] || ent.state.Status() != vm.StatusIdle {
			continue
		}
		if et, due := ent.state.NextEventTime(); !due || et != t {
			continue
		}
		// Partial-order relaxation (internal/reduce): a foreign activation
		// that is independent of the rep's pending one — the rep's handler
		// is pure and the foreign one cannot deliver to the rep's node —
		// commutes with it, so the unmerged interleaving is observably
		// identical and the rep may stay merged.
		if e.porCanCommute(s, ent.state) {
			e.own.Reduce.PORCommutes++
			continue
		}
		return false
	}
	if ev, pending := s.PeekEvent(); pending && ev.Kind == vm.EventRecv {
		n := s.NodeID()
		f := e.cfg.Failures
		if (f.DropFirst[n] || f.DuplicateFirst[n] || f.RebootOnFirst[n]) && s.RecvCount() == 0 {
			return false
		}
	}
	return true
}

// Merge-scan backoff tuning: after mergeBarrenThreshold consecutive scans
// without a fusion the engine starts skipping scans, doubling the skip
// interval (up to mergeBackoffCap) while the workload stays barren and
// resetting to every-Step scanning on the first new fusion.
const (
	mergeBarrenThreshold = 8
	mergeBackoffCap      = 64
)

// mergeWake cancels the scan backoff. Called whenever the frontier gains
// states that could pair up — fork adoptions and rep splits — so the
// backoff only ever skips scans over a frontier that has not grown since
// the last fruitless scan.
func (e *Engine) mergeWake() {
	e.mergeBarren = 0
	e.mergeInterval = 0
	e.mergeSkip = 0
}

// maybeMergeScan runs the end-of-event merge scan, or skips it under the
// exponential backoff a barren workload earns. Touched nodes accumulate
// across skipped scans and are cleared only after a scan actually runs,
// so skipping defers merge candidates without losing any — and because
// mergeWake cancels the backoff the moment the frontier grows, a deferred
// scan only ever covers states that already failed to pair up. Deferral
// is safe: merging is an optimisation that preserves execution
// bit-for-bit, so WHEN a fusion happens affects only how much work it
// saves.
func (e *Engine) maybeMergeScan() {
	if e.mergeSkip > 0 {
		e.mergeSkip--
		e.own.Merge.ScansSkipped++
		return
	}
	before := e.mergeMgr.Stats()
	e.mergeScan()
	clear(e.mergeTouched)
	after := e.mergeMgr.Stats()
	if after.Merges > before.Merges || after.Candidates > before.Candidates {
		// The scan found structurally mergeable pairs (fused or not):
		// the workload is not barren, keep scanning every Step.
		e.mergeWake()
		return
	}
	e.mergeBarren++
	if e.mergeBarren >= mergeBarrenThreshold {
		if e.mergeInterval == 0 {
			e.mergeInterval = 1
		} else if e.mergeInterval < mergeBackoffCap {
			e.mergeInterval *= 2
		}
		e.mergeSkip = e.mergeInterval
	}
}

// mergeScan offers the quiescent states of every node touched since the
// last scan to the merge manager. It runs after the event's runnable
// states are fully drained — every speculative verdict is resolved and
// each state is at an event boundary, the same property checkpoints rely
// on.
func (e *Engine) mergeScan() {
	if len(e.mergeTouched) == 0 {
		return
	}
	var cands []*vm.State
	for _, s := range e.states {
		if _, touched := e.mergeTouched[s.NodeID()]; !touched {
			continue
		}
		if st := s.Status(); st != vm.StatusIdle && st != vm.StatusHalted {
			continue
		}
		if e.mergeMgr.IsFrozen(s) {
			continue
		}
		cands = append(cands, s)
	}
	e.mergeMgr.ForEachRep(func(r *vm.State) {
		if _, touched := e.mergeTouched[r.NodeID()]; touched {
			cands = append(cands, r)
		}
	})
	e.mergeMgr.Scan(cands)
}

// merge.Driver: split members re-enter exploration through the same
// scheduling paths unmerged states use.

func (h *engineHooks) EnqueueRunnable(s *vm.State) {
	e := (*Engine)(h)
	e.runnable = append(e.runnable, s)
	e.mergeWake()
}

func (h *engineHooks) ScheduleIdle(s *vm.State) {
	e := (*Engine)(h)
	e.scheduleHeap(s)
	e.mergeWake()
}
