package sde

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"sde/internal/shard"
	"sde/internal/sim"
	"sde/internal/snap"
	"sde/internal/solver"
	"sde/internal/vm"
)

// Lease-granular execution: the building blocks of the multi-process
// exploration service (cmd/sde-serve, cmd/sde-worker, internal/dist).
// The unit of distribution is the same unit the in-process shard
// scheduler uses — a (depth, bits) sub-space of the dscenario partition —
// and the wire payload of a finished lease is the shard's final snapshot
// in the checkpoint format, so crash recovery and result shipping both fall
// out of the existing snapshot + resume machinery:
//
//   - a worker executes a lease with RunShardLease, checkpointing
//     periodically into a directory; if it crashes, the re-issued lease
//     resumes from that directory (or, without shared storage or before the
//     first checkpoint, re-runs the deterministic shard from scratch) —
//     either way the leaf is bit-identical;
//   - the coordinator collects the leaf checkpoints and rebuilds a full
//     ShardedReport with AssembleSharded, which resumes each finished
//     snapshot in-process (replaying zero events);
//   - Digest canonicalises the observable outputs so "bit-identical to an
//     in-process run" is a string comparison.

// ShardItem identifies one sub-space of the dscenario partition — pinned
// failure decisions plus a depth-horizon continuation path — and ContStep
// one generation of that path. They are the shard queue's item types, and
// what a work lease carries on the wire.
type (
	ShardItem = shard.Item
	ContStep  = shard.ContStep
)

// shardPin maps the item's pinned bits onto the scenario's shardable drop
// decisions (sorted by node id, LSB first).
func (s Scenario) shardPin(it ShardItem) map[string]uint64 {
	armed := sortedShardable(s)
	pin := make(map[string]uint64, it.Depth)
	for bit := 0; bit < it.Depth; bit++ {
		pin[sim.FailureVar(sim.Drop, armed[bit], 0)] = (it.Bits >> uint(bit)) & 1
	}
	return pin
}

// LeaseOptions parameterises RunShardLease.
type LeaseOptions struct {
	// CheckpointDir receives the lease's periodic checkpoints, and is where
	// a re-issued lease looks for one to resume from. Nothing else is
	// written there: the lease's outcome — leaf or suspended frontier — is
	// encoded once and returned in memory, so a lease shorter than the
	// schedule's first checkpoint leaves the directory empty. Required.
	CheckpointDir string
	// CheckpointEvery selects the lease's periodic checkpoint schedule, as
	// Scenario.WithCheckpoints does: n > 0 checkpoints after every n
	// processed events exactly; 0 is cost-paced (at most every 256 events,
	// and only once exploration has taken 8 times what the last checkpoint
	// cost, so at most 1/8 of a lease goes into periodic checkpoints and a
	// crash loses at most 8 checkpoint costs — 16 ms before the first
	// checkpoint — plus 256 events).
	CheckpointEvery int
	// Progress, when non-nil, is polled before every event with the live
	// state count and elapsed wall time; returning true stops the run
	// (LeaseOutcome.Stopped) — how a worker honours a job cancellation or
	// an injected crash.
	Progress func(states int, elapsed time.Duration) (stop bool)
	// EventTarget, when non-zero, is the depth horizon for this lease as
	// an absolute cumulative processed-event count: the run suspends once
	// the engine's event counter reaches it and live pre-horizon work
	// remains (LeaseOutcome.Suspended). Being absolute — not relative to
	// the lease start — makes the horizon boundaries of a crashed-and-
	// resumed lease land on exactly the same events.
	EventTarget uint64
	// Continuation is the suspended parent frontier for a continuation
	// item (len(it.Cont) > 0): the snapshot shipped by the worker whose
	// lease suspended. The lease resumes slice Cont[last].Seg of the
	// frontier partitioned Cont[last].Of ways, unless CheckpointDir
	// already holds this item's own (crashed or finished) checkpoint,
	// which takes precedence.
	Continuation []byte
}

// LeaseOutcome is the result of one executed work lease.
type LeaseOutcome struct {
	// Stopped: the Progress hook cut the run short; the partial results
	// are not a sound cover of the sub-space and Snapshot is nil.
	Stopped bool
	// Suspended: the run hit its EventTarget depth horizon with live
	// work remaining. Snapshot is then the surviving frontier — the
	// continuation payload the coordinator fans out as new work items —
	// and Units/Events describe how it may be partitioned and where the
	// next horizon sits.
	Suspended bool
	// Units is the number of independently resumable slices the
	// suspended frontier supports (COB: its dscenario count; COW/SDS: 1,
	// since their states share grouping structure). A fan-out wider than
	// Units is unsatisfiable and must be clamped.
	Units int
	// Events is the cumulative processed-event count at suspension; the
	// continuation generation's EventTarget is Events + horizon.
	Events uint64
	// Report is the shard's report (partial when Stopped or Suspended).
	Report *Report
	// Snapshot is the shard's final snapshot, encoded — the bytes a worker
	// streams back to the coordinator. For a suspended lease it is the
	// live frontier rather than a finished leaf.
	Snapshot []byte
}

// RunShardLease executes one work lease: the scenario restricted to the
// item's sub-space, checkpointing periodically into opts.CheckpointDir. A
// directory that already holds a checkpoint — a crashed worker's — is
// resumed, replaying only what the snapshot does not cover. This is the
// worker half of the exploration service.
func RunShardLease(s Scenario, it ShardItem, opts LeaseOptions) (*LeaseOutcome, error) {
	if err := it.Validate(s.MaxShardBits()); err != nil {
		return nil, fmt.Errorf("sde: %w", err)
	}
	if opts.CheckpointDir == "" {
		return nil, fmt.Errorf("sde: RunShardLease needs a checkpoint directory")
	}
	report, final, err := runShardItem(s, shardRun{
		task:     &shard.Task{Item: it, Target: opts.EventTarget, Parent: opts.Continuation},
		dir:      opts.CheckpointDir,
		lease:    true,
		every:    opts.CheckpointEvery,
		progress: opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	out := &LeaseOutcome{Report: report, Snapshot: final}
	switch {
	case report.Stopped():
		out.Stopped = true
	case report.Suspended():
		out.Suspended = true
		out.Units = report.res.SuspendUnits
		out.Events = report.res.Events
	}
	return out, nil
}

// shardRun is one execution of a queue task: the task plus the run-time
// hooks its transport installs. Everything else — the layers included —
// is the scenario's.
type shardRun struct {
	task *shard.Task
	dir  string // checkpoint directory ("" = not durable)
	// lease: the outcome leaves with the caller — the final snapshot is
	// returned whatever the run ended as, and dir is for periodic
	// checkpoints only. Otherwise dir ends holding the final snapshot, for
	// whoever resumes the sharded run, and only a suspension's is returned.
	lease    bool
	every    int // checkpoint interval in events (0 = cost-paced)
	progress func(states int, elapsed time.Duration) (stop bool)
	cache    *solver.SharedCache
}

// runShardItem executes one work item — the single path both transports
// run items through. The scenario is restricted to the item's sub-space
// and starts fresh, resumed from the item's own checkpoint in r.dir, or —
// for a continuation item with no checkpoint of its own yet — resumed as
// slice Cont[last].Seg of the parent frontier partitioned Cont[last].Of
// ways. It returns the report plus the encoded final snapshot: the
// frontier when the run suspended at its depth horizon, the leaf when a
// lease finished, nil otherwise.
func runShardItem(s Scenario, r shardRun) (*Report, []byte, error) {
	item := r.task.Item
	sub := s
	sub.desc = fmt.Sprintf("%s [shard %s]", s.desc, item.Label())
	sub.cfg.Pin = s.shardPin(item)
	sub.cfg.CheckpointDir, sub.cfg.CheckpointEvery = "", 0
	// The report keeps sub; the hooks go on the engine's copy only, so a
	// replay through the report is not stopped by a stale progress hook or
	// event budget, does not write into the shared cache and does not
	// overwrite the shard's checkpoint.
	cfg := sub.cfg
	cfg.Progress = r.progress
	cfg.Solver.SharedCache = r.cache
	cfg.EventBudget = r.task.Target
	cfg.CheckpointDir, cfg.CheckpointEvery = r.dir, r.every

	var data []byte
	err := snap.ErrNoCheckpoint
	if r.dir != "" {
		data, err = snap.LoadBytes(r.dir)
	}
	var eng *sim.Engine
	switch {
	case err == nil:
		eng, err = sim.ResumeEngine(cfg, data)
	case errors.Is(err, snap.ErrNoCheckpoint):
		eng, err = newShardEngine(cfg, item.Cont, r.task.Parent)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("sde: %w", err)
	}
	res, final, err := eng.RunItem(r.lease)
	if err != nil {
		return nil, nil, fmt.Errorf("sde: %w", err)
	}
	return &Report{res: res, scenario: sub}, final, nil
}

// newShardEngine builds the engine for an item starting from scratch: a
// plain fresh engine, or a slice of the shipped parent frontier for a
// continuation item.
func newShardEngine(cfg sim.Config, cont []ContStep, parent []byte) (*sim.Engine, error) {
	if len(cont) == 0 {
		return sim.NewEngine(cfg)
	}
	if len(parent) == 0 {
		return nil, fmt.Errorf("sde: continuation item without a parent frontier")
	}
	last := cont[len(cont)-1]
	return sim.ResumeEngineSlice(cfg, parent, last.Seg, last.Of)
}

// ShardLeaf is one completed leaf of a distributed run: the item and its
// final checkpoint as shipped over the wire.
type ShardLeaf struct {
	Item     ShardItem
	Snapshot []byte
}

// AssembleSharded rebuilds a full ShardedReport from shipped shard-leaf
// checkpoints: each snapshot is resumed in-process (replaying zero
// events, since leaves are finished runs) and the reports are ordered and
// aggregated exactly as RunScenarioShardedWith orders an in-process run —
// so a distributed run's report is bit-identical to a local one. The
// leaves must form a prefix-free cover of the shard space (the set of
// completed items of any run does); gaps and overlaps are rejected rather
// than silently under- or double-counted.
func AssembleSharded(s Scenario, leaves []ShardLeaf) (*ShardedReport, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("sde: no shard leaves to assemble")
	}
	items := make([]ShardItem, len(leaves))
	for i, leaf := range leaves {
		if err := leaf.Item.Validate(s.MaxShardBits()); err != nil {
			return nil, fmt.Errorf("sde: %w", err)
		}
		items[i] = leaf.Item
	}
	if err := shard.VerifyCover(items); err != nil {
		return nil, fmt.Errorf("sde: %w", err)
	}
	// Each leaf resumes on an engine, builder and solver of its own, so the
	// leaves restore side by side; results and errors keep leaf order, which
	// makes the report and the error returned independent of which finishes
	// first.
	results := make([]leafResult, len(leaves))
	errs := make([]error, len(leaves))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range leaves {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			results[i], errs[i] = resumeLeaf(s, leaves[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return finalizeSharded(s, results, SchedStats{Resumed: len(results)}), nil
}

// resumeLeaf rebuilds one finished leaf's report from its snapshot.
func resumeLeaf(s Scenario, leaf ShardLeaf) (leafResult, error) {
	sub := s
	sub.cfg.Pin = s.shardPin(leaf.Item)
	eng, err := sim.ResumeEngine(sub.cfg, leaf.Snapshot)
	if err != nil {
		return leafResult{}, fmt.Errorf("sde: shard %s: %w", leaf.Item.Label(), err)
	}
	res, err := eng.Run()
	if err != nil {
		return leafResult{}, fmt.Errorf("sde: shard %s: %w", leaf.Item.Label(), err)
	}
	return leafResult{item: leaf.Item, report: &Report{res: res, scenario: sub}}, nil
}

// Digest canonicalises the report's observable outputs — per-shard pins,
// state counts, dscenario counts and fingerprints, violations, and up to
// testCases concrete test cases per shard — into a SHA-256 hex string.
// Two runs of the same scenario agree on the digest iff they agree on
// every one of those outputs, so "the distributed run is bit-identical to
// the in-process run" is a string comparison. Both sides must use the
// same testCases limit. Scheduling telemetry, wall times, and
// descriptions are deliberately excluded: they may legitimately differ.
func (r *ShardedReport) Digest(testCases int) (string, error) {
	h := sha256.New()
	for i, sh := range r.Shards {
		fmt.Fprintf(h, "shard %d\n", i)
		writeSortedPin(h, sh.Pin)
		rep := sh.Report
		fmt.Fprintf(h, "states %d\n", rep.States())
		fmt.Fprintf(h, "groups %d\n", rep.Groups())
		fmt.Fprintf(h, "dscenarios %s\n", rep.DScenarios().String())
		writeDScenarioFingerprints(h, rep)
		for _, v := range rep.Violations() {
			fmt.Fprintf(h, "violation node=%d t=%d msg=%q\n", v.Node, v.Time, v.Msg)
			writeSortedPin(h, v.Model)
		}
		if testCases != 0 {
			tcs, err := rep.TestCases(testCases)
			if err != nil {
				return "", fmt.Errorf("sde: digest: %w", err)
			}
			for _, tc := range tcs {
				fmt.Fprintf(h, "testcase %d\n", tc.Index)
				for _, name := range tc.Vars() {
					fmt.Fprintf(h, "  %s=%d\n", name, tc.Inputs[name])
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func writeSortedPin(w io.Writer, m map[string]uint64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %s=%d\n", name, m[name])
	}
}

// writeDScenarioFingerprints hashes each represented dscenario — the
// FNV-1a of its per-node state fingerprints — in sorted order, the same
// canonicalisation the sharded-equivalence tests use. A state stands in
// many dscenarios (COW and SDS exist to make it so), so each is
// fingerprinted once, into a table keyed by state, and the dscenarios
// stream past it without being materialised.
func writeDScenarioFingerprints(w io.Writer, rep *Report) {
	m := rep.res.Mapper
	stateFP := make(map[*vm.State]uint64, m.NumStates())
	m.ForEachState(func(s *vm.State) { stateFP[s] = s.Fingerprint() })
	var fps []uint64
	m.ExplodeFunc(0, func(sc []*vm.State) bool {
		fp := uint64(14695981039346656037)
		for _, s := range sc {
			fp ^= stateFP[s]
			fp *= 1099511628211
		}
		fps = append(fps, fp)
		return true
	})
	slices.Sort(fps)
	line := []byte("fp 0000000000000000\n") // fmt's "fp %016x\n", 852 k times
	var word [8]byte
	for _, fp := range fps {
		binary.BigEndian.PutUint64(word[:], fp)
		hex.Encode(line[3:], word[:])
		w.Write(line)
	}
}

// sortedShardable returns the scenario's shardable nodes in pinning
// order (ascending node id).
func sortedShardable(s Scenario) []int {
	armed := append([]int(nil), s.shardable...)
	sort.Ints(armed)
	return armed
}
