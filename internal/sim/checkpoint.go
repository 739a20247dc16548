// Engine checkpoint/resume: Snapshot flattens the full exploration
// frontier between Steps; ResumeEngine rebuilds a live engine from a
// decoded snapshot so the resumed run is bit-identical to an
// uninterrupted one (same state ids, same mapper structure, same future
// forks). Solver state is deliberately absent from snapshots, and a
// resume makes no solver call: the solver keeps nothing per state.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"sde/internal/core"
	"sde/internal/metrics"
	"sde/internal/snap"
	"sde/internal/vm"
)

// Snapshot flattens the engine's current frontier. It must be called
// between Steps: every state is then at an event boundary (idle, halted,
// or dead), the only point where a state image is well-defined. It joins
// the witnesses in flight first, so the violations it carries have their
// models.
func (e *Engine) Snapshot() (*snap.Snapshot, error) {
	if err := e.joinWitnesses(); err != nil {
		return nil, err
	}
	if len(e.runnable) != 0 {
		return nil, fmt.Errorf("sim: snapshot mid-event (%d runnable states)", len(e.runnable))
	}
	pt := vm.NewPageTable(e.ctx)
	images := make([]vm.StateImage, 0, len(e.states))
	for _, s := range e.states {
		if s.Status() == vm.StatusRunning {
			return nil, fmt.Errorf("sim: snapshot with running state %d", s.ID())
		}
		images = append(images, s.Image(pt))
	}
	mapper, err := core.SnapshotMapper[*vm.State](e.mapper)
	if err != nil {
		return nil, err
	}
	return &snap.Snapshot{
		Algorithm:   e.cfg.Algorithm,
		K:           e.cfg.Topo.K(),
		Topology:    e.cfg.Topo.Name(),
		Clock:       e.clock,
		Events:      e.events,
		NextStateID: e.ctx.StateIDSeq(),
		Carried: snap.Carried{
			Stats:      e.stats(),
			PeakStates: e.peakStates,
			PeakMem:    e.peakMem,
			PriorWall:  e.priorWall + time.Since(e.started),
			Samples:    append([]metrics.Sample(nil), e.series.Samples()...),
			Violations: append([]*vm.Violation(nil), e.violations...),
		},
		States: images,
		Pages:  pt.Pages(),
		Mapper: mapper,
	}, nil
}

// checkpointDue decides, at a grid boundary reached at time now, whether
// to cut a periodic checkpoint. An explicit interval always does. The
// paced schedule does once the exploration since the last checkpoint
// finished — since the engine was built, before the first — has taken
// checkpointPace times what that checkpoint cost: every periodic
// checkpoint but the last is then followed by at least checkpointPace
// times its cost in exploration, which is the whole argument for the
// 1/checkpointPace budget and the loss bound. Before the first the cost is
// unknown and taken to be checkpointFloor, so a run shorter than
// checkpointPace floors writes no periodic checkpoint at all.
func (e *Engine) checkpointDue(now time.Time) bool {
	if e.cfg.CheckpointEvery > 0 {
		return true
	}
	cost := e.ckptCost
	if cost == 0 {
		cost = checkpointFloor
	}
	return now.Sub(e.ckptDone) >= checkpointPace*cost
}

// encodeSnapshot snapshots the frontier and encodes it.
func (e *Engine) encodeSnapshot() (*snap.Snapshot, []byte, error) {
	sp, err := e.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	data, err := sp.Encode(e.ctx.Exprs)
	return sp, data, err
}

// writeCheckpoint snapshots the frontier and writes it durably into
// cfg.CheckpointDir. begin is when the checkpoint started.
func (e *Engine) writeCheckpoint(begin time.Time) error {
	sp, data, err := e.encodeSnapshot()
	if err != nil {
		return err
	}
	return e.saveCheckpoint(sp, data, begin)
}

// saveCheckpoint makes an encoded snapshot the directory's checkpoint,
// updating the checkpoint watermark on success. Its cost runs from begin
// to the moment the snapshot is durable, and goes into the journal line.
func (e *Engine) saveCheckpoint(sp *snap.Snapshot, data []byte, begin time.Time) error {
	if err := snap.Save(e.cfg.CheckpointDir, data); err != nil {
		return err
	}
	e.lastCkpt = e.events
	e.own.Checkpoint.Written++ // before the clock read: a test clock charges per checkpoint written
	e.ckptDone = e.now()
	e.ckptCost = e.ckptDone.Sub(begin)
	e.own.Checkpoint.Wall += e.ckptCost
	return snap.AppendJournal(e.cfg.CheckpointDir, sp, len(data), e.ckptCost)
}

// ResumeEngine rebuilds an engine from an encoded checkpoint. The config
// must describe the same scenario (program, topology, algorithm, failure
// plan) as the interrupted run; caps, checkpoint settings, and solver
// tuning may differ. Decoding interns the snapshot's expressions into a
// fresh builder whose variable ids match the interrupted run's, so every
// hash, fingerprint, and future canonicalisation is reproduced exactly.
func ResumeEngine(cfg Config, data []byte) (*Engine, error) {
	return resumeSnapshot(cfg, data, 0, 1)
}

// ResumeEngineSlice rebuilds an engine from slice seg of a suspended
// frontier partitioned `of` ways — the resume half of depth-horizon
// continuation sharding. The snapshot is decoded whole (interning every
// variable, so ids stay deterministic across slices) and then cut along
// dstates: slice seg keeps the COB dstates — each one dscenario — whose
// creation-order index i satisfies i % of == seg, plus exactly the states
// they reference. COB's invariant that every state belongs to exactly one
// dscenario makes the slices disjoint; their union is the whole frontier.
// COW and SDS frontiers are not sliceable (states share buckets), so for
// them only of == 1 is accepted. Slice 0 is the carrier: it keeps what the
// snapshot carried (snap.Carried: counters, violations, samples, peaks,
// wall), the other slices start from the zero value, so sharded assembly
// sums each exactly once.
func ResumeEngineSlice(cfg Config, data []byte, seg, of int) (*Engine, error) {
	if of < 1 || seg < 0 || seg >= of {
		return nil, fmt.Errorf("sim: slice %d/%d out of range", seg, of)
	}
	return resumeSnapshot(cfg, data, seg, of)
}

func resumeSnapshot(cfg Config, data []byte, seg, of int) (*Engine, error) {
	e, err := newEngineShell(cfg)
	if err != nil {
		return nil, err
	}
	cfg = e.cfg // with defaults applied
	sp, err := snap.Decode(data, e.ctx.Exprs)
	if err != nil {
		return nil, err
	}
	if sp.Algorithm != cfg.Algorithm {
		return nil, fmt.Errorf("sim: checkpoint is a %v run, config says %v", sp.Algorithm, cfg.Algorithm)
	}
	if sp.Topology != cfg.Topo.Name() || sp.K != cfg.Topo.K() {
		return nil, fmt.Errorf("sim: checkpoint topology %s (k=%d) does not match config %s (k=%d)",
			sp.Topology, sp.K, cfg.Topo.Name(), cfg.Topo.K())
	}
	if of > 1 {
		if err := sliceSnapshot(sp, seg, of); err != nil {
			return nil, err
		}
	}
	// The id sequence first: future forks must draw ids after every id the
	// snapshot already handed out.
	e.ctx.RestoreStateIDSeq(sp.NextStateID)
	e.base = sp.Stats
	states, err := vm.RestoreStates(e.ctx, cfg.Prog, sp.States, sp.Pages)
	if err != nil {
		return nil, err
	}
	// The mapper takes the states in ascending id order — the order an
	// engine keeps them in, so sorting is a pass that finds nothing to do —
	// and refuses ids that repeat. Nothing is sized by an id: ids go sparse
	// once a frontier is sliced (core.SearchIDs).
	byID := states
	if !slices.IsSortedFunc(byID, compareIDs) {
		byID = slices.Clone(states)
		slices.SortFunc(byID, compareIDs)
	}
	// Ids are handed out with Add(1), so the counter equals the highest
	// id already assigned.
	if n := len(byID); n > 0 && byID[n-1].ID() > sp.NextStateID {
		return nil, fmt.Errorf("sim: checkpoint state id %d beyond counter %d", byID[n-1].ID(), sp.NextStateID)
	}
	mapper, err := core.RestoreMapper(sp.Mapper, byID)
	if err != nil {
		return nil, err
	}
	e.mapper = mapper
	e.states = states
	e.clock = sp.Clock
	e.events = sp.Events
	e.lastCkpt = sp.Events
	e.peakStates = sp.PeakStates
	if len(states) > e.peakStates {
		e.peakStates = len(states)
	}
	e.peakMem = sp.PeakMem
	e.priorWall = sp.PriorWall
	e.violations = append([]*vm.Violation(nil), sp.Violations...)
	e.series.Restore(sp.Samples)
	e.resumed = true
	// The same ids are the sorted part of the heap's seq index; the states
	// forked from here on, all above them, go in its dense part.
	ids := make([]uint64, len(byID))
	for i, s := range byID {
		ids[i] = s.ID()
	}
	e.entrySeq.Restored(ids)
	for _, s := range states {
		e.scheduleHeap(s)
	}
	return e, nil
}

// sliceSnapshot cuts a decoded suspension snapshot down to slice seg of
// `of`, in place. Only COB frontiers are sliceable — each dstate is one
// dscenario, a disjoint set of states (every state belongs to exactly one
// dstate), so keeping dstates i with i % of == seg and exactly the states
// they reference yields a valid, independently resumable sub-frontier.
// Dstate order (creation order) is deterministic, so every consumer of the
// same snapshot cuts identical slices. Pages referenced only by dropped
// states stay in the table; restoring ignores them.
func sliceSnapshot(sp *snap.Snapshot, seg, of int) error {
	if sp.Algorithm != core.COBAlgorithm {
		return fmt.Errorf("sim: %v frontiers are not sliceable (states share grouping structure); use fanout 1",
			sp.Algorithm)
	}
	all := sp.Mapper.DStates
	keep := make([][][]uint64, 0, (len(all)+of-1)/of)
	keepIDs := make(map[uint64]bool)
	for i, d := range all {
		if i%of != seg {
			continue
		}
		keep = append(keep, d)
		for _, bucket := range d {
			for _, id := range bucket {
				keepIDs[id] = true
			}
		}
	}
	if len(keep) == 0 {
		return fmt.Errorf("sim: slice %d/%d keeps none of the %d dscenarios", seg, of, len(all))
	}
	sp.Mapper.DStates = keep
	kept := sp.States[:0]
	for _, img := range sp.States {
		if keepIDs[img.ID] {
			kept = append(kept, img)
		}
	}
	sp.States = kept
	if seg != 0 {
		// Slice 0 is the carrier of everything accumulated before the
		// suspension, so sharded assembly sums each contribution exactly
		// once. The position (clock, events, next state id) is every
		// slice's.
		sp.Carried = snap.Carried{}
	}
	return nil
}

func compareIDs(a, b *vm.State) int { return cmp.Compare(a.ID(), b.ID()) }
