// Package sde is a library for scalable symbolic execution of distributed
// systems, reproducing "Scalable Symbolic Execution of Distributed
// Systems" (Sasnauskas et al., ICDCS 2011).
//
// The library symbolically executes a network of k nodes running
// unmodified programs written against a small 32-bit instruction set (see
// NewProgramBuilder). Execution states fork at symbolic branches and at
// injected network failures; the state mapping algorithms of the paper —
// Copy On Branch (COB), Copy On Write (COW), and Super DStates (SDS) —
// decide which states of a destination node receive each transmitted
// packet while keeping the set of live states minimal.
//
// Typical use:
//
//	scenario, _ := sde.GridCollectScenario(sde.GridCollectOptions{
//		Dim:       5,
//		Algorithm: sde.SDS,
//		Packets:   10,
//	})
//	report, _ := sde.RunScenario(scenario)
//	fmt.Println(report.Summary())
//	cases, _ := report.TestCases(10)
//
// Single programs can be explored KLEE-style with Explore, and any
// violation's concrete witness can be replayed deterministically with
// Report.ReplayViolation.
package sde

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
	"time"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/metrics"
	"sde/internal/sim"
	"sde/internal/snap"
	"sde/internal/trace"
	"sde/internal/vm"
)

// Algorithm selects a state mapping algorithm.
type Algorithm = core.Algorithm

// The three state mapping algorithms of the paper's §III.
const (
	COB = core.COBAlgorithm
	COW = core.COWAlgorithm
	SDS = core.SDSAlgorithm
)

// Algorithms lists all state mapping algorithms in the paper's order.
var Algorithms = []Algorithm{COB, COW, SDS}

// Topology describes node connectivity; construct with Grid, Line, or
// FullMesh.
type Topology = sim.Topology

// Grid returns a w x h lattice with 4-way radio connectivity (the paper's
// evaluation topology). Node 0 is the top-left corner, node w*h-1 the
// bottom-right corner.
func Grid(w, h int) *sim.Grid { return sim.NewGrid(w, h) }

// Line returns a k-node chain.
func Line(k int) *sim.Line { return sim.NewLine(k) }

// FullMesh returns a k-node full mesh (every pair connected).
func FullMesh(k int) *sim.FullMesh { return sim.NewFullMesh(k) }

// Env is a concrete assignment of symbolic inputs (a test case).
type Env = expr.Env

// MemTerms splits a modeled memory footprint into page bytes and per-state
// overhead bytes.
type MemTerms = sim.MemTerms

// Violation is a failed assertion with its concrete witness.
type Violation = vm.Violation

// Caps bound a run's resources; exceeding one aborts the run, mirroring
// the paper's aborted COB measurement.
type Caps = sim.Caps

// FailurePlan selects the symbolic network failures per node.
type FailurePlan = sim.FailurePlan

// NodeSet builds a FailurePlan membership map from a node list.
func NodeSet(nodes []int) map[int]bool { return sim.NodeSet(nodes) }

// Sample is one metrics measurement (states, modeled memory, time).
type Sample = metrics.Sample

// SchedStats is the shard pool's telemetry: worker utilisation, steals,
// suspensions, and cross-shard solver-cache reuse. See ShardedReport.Sched.
type SchedStats = metrics.SchedStats

// RunStats is the one value a run's cumulative counters travel in: one part
// per layer, carried by snapshots, so a resumed run, a continuation slice
// and an assembled fleet report each count the work that was done, once.
// See Report.Stats and ShardedReport.Stats. The other types are its parts
// (plus Checkpoint); Report has an accessor for each, and the fields are
// documented where they are declared, in internal/metrics.
type (
	RunStats    = metrics.RunStats
	SolverStats = metrics.SolverStats // queries, caches, CDCL work
	SpecStats   = metrics.SpecStats   // speculative forking: speculations, elisions, rewinds, resolution time
	VMStats     = metrics.VMStats     // instructions, forks, fast vs interpreted blocks, folded instructions
)

// Scenario is a fully specified SDE run. Build one with a constructor
// (GridCollectScenario, FloodScenario, CustomScenario) and pass it to
// RunScenario.
type Scenario struct {
	cfg  sim.Config
	desc string
	// shardable lists armed drop nodes whose failure decision is
	// guaranteed to materialise in every execution (radio neighbours of
	// the traffic source: they receive the source's unconditional first
	// broadcast). Only such decisions partition the dscenario space
	// soundly; see RunScenarioSharded.
	shardable []int
}

// Description returns a human-readable summary of the scenario.
func (s Scenario) Description() string { return s.desc }

// Algorithm returns the scenario's state mapping algorithm.
func (s Scenario) Algorithm() Algorithm { return s.cfg.Algorithm }

// Program returns the node software the scenario runs.
func (s Scenario) Program() *Program { return s.cfg.Prog }

// ShardableSites returns the program branches the load-time compiler's
// static taint pass found to be data-dependent on symbolic input —
// candidate shard points beyond the drop decisions the scenario's
// shardable-node list declares. A scenario whose program has such sites
// but whose MaxShardBits is zero cannot be partitioned at all; sde-run
// warns in that case.
func (s Scenario) ShardableSites() []ShardSite { return s.cfg.Prog.ShardableSites() }

// ShardabilityNote returns a human-readable heads-up when the program has
// symbolic-input-dependent branches (candidate shard points) but the
// scenario declares no shardable nodes — such a run cannot be partitioned
// by sharded or distributed exploration at all. It returns "" when the
// scenario is shardable or the program has no such sites. Every scenario
// entry point surfaces it: sde-run prints it for flag-driven runs and the
// exploration service logs it at job submission, so ScenarioSpec-driven
// runs get the same warning.
func (s Scenario) ShardabilityNote() string {
	sites := s.ShardableSites()
	if len(sites) == 0 || s.MaxShardBits() > 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b,
		"%d program branch(es) depend on symbolic input but the scenario declares no shardable nodes; sharded exploration cannot partition this space",
		len(sites))
	for i, site := range sites {
		if i == 4 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(sites)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", site)
	}
	return b.String()
}

// WithAlgorithm returns a copy of the scenario using a different state
// mapping algorithm — the way evaluation sweeps compare COB, COW, and SDS
// on identical workloads.
func (s Scenario) WithAlgorithm(a Algorithm) Scenario {
	s.cfg.Algorithm = a
	return s
}

// WithCaps returns a copy of the scenario with resource caps applied.
func (s Scenario) WithCaps(c Caps) Scenario {
	s.cfg.Caps = c
	return s
}

// WithSampling returns a copy sampling metrics every n events.
func (s Scenario) WithSampling(n int) Scenario {
	s.cfg.SampleEvery = n
	return s
}

// Layers is the set of optional execution layers of a run: what each
// switch preserves, and the order to flip them in when a run looks wrong
// (declaration order, bottom layer first), are documented once, on the
// type. A Scenario carries exactly one Layers value — written by the
// With*/Without* methods below or by ScenarioSpec.Layers — and every run
// path (RunScenario, the sharded pool, a work lease, a fleet job) executes
// with it unchanged.
type Layers = sim.Layers

// WithoutCompiledIR returns a copy of the scenario with Layers.NoCompile
// set: every instruction goes through the symbolic interpreter.
func (s Scenario) WithoutCompiledIR() Scenario {
	s.cfg.Layers.NoCompile = true
	return s
}

// WithoutSpeculation returns a copy of the scenario with
// Layers.NoSpeculate set: every symbolic branch and assume is decided
// where it stands.
func (s Scenario) WithoutSpeculation() Scenario {
	s.cfg.Layers.NoSpeculate = true
	return s
}

// WithCheckpoints returns a copy of the scenario that writes durable
// snapshots of the exploration frontier into dir: periodic ones on the
// schedule `every` selects and one more on completion. A crashed run
// continues from the last snapshot via Resume.
//
// every > 0 is exact: a checkpoint after every `every` processed events,
// whatever it costs. every == 0 is the cost-paced default: a checkpoint
// may be cut every 256 events, and is only once exploration since the
// previous checkpoint finished has taken at least 8 times what that
// checkpoint cost (snapshot, encode, write and fsync, measured; before the
// first, a 2 ms floor stands in, so a run shorter than 16 ms writes only
// its final snapshot). Periodic checkpoints then take at most 1/8 of the
// time spent exploring, and a crash loses at most 8 times the last
// checkpoint's cost — 16 ms before the first — plus 256 events of work. The
// snapshots and the resumed run are the same under either schedule.
func (s Scenario) WithCheckpoints(dir string, every int) Scenario {
	s.cfg.CheckpointDir = dir
	s.cfg.CheckpointEvery = every
	return s
}

// Report is the outcome of a scenario run.
type Report struct {
	res      *sim.Result
	scenario Scenario
}

// RunScenario executes the scenario to completion (or until a cap fires)
// and returns its report.
func RunScenario(s Scenario) (*Report, error) {
	eng, err := sim.NewEngine(s.cfg)
	if err != nil {
		return nil, fmt.Errorf("sde: %w", err)
	}
	res, err := eng.Run()
	if err != nil {
		return nil, fmt.Errorf("sde: %w", err)
	}
	return &Report{res: res, scenario: s}, nil
}

// Checkpoint runs the scenario with periodic durable checkpoints written
// into dir: RunScenario with WithCheckpoints applied, on the scenario's
// schedule — cost-paced unless WithCheckpoints set an exact interval (see
// there for the rule and the loss bound). Report.Stats().Checkpoint says
// what the checkpoints cost.
func Checkpoint(s Scenario, dir string) (*Report, error) {
	return RunScenario(s.WithCheckpoints(dir, s.cfg.CheckpointEvery))
}

// Resume continues the scenario from the checkpoint in dir — or starts it
// fresh (checkpointing into dir) when none has been written yet, so a
// crash-restart loop can call Resume unconditionally. The resumed run is
// bit-identical to an uninterrupted one: same state ids, same dscenarios,
// same fingerprints, same test cases. Report.Resumed distinguishes the
// two outcomes. The scenario must match the interrupted run (program,
// topology, algorithm, failures); caps and solver tuning may differ.
func Resume(s Scenario, dir string) (*Report, error) {
	return runOrResume(s, dir)
}

func runOrResume(s Scenario, dir string) (*Report, error) {
	s = s.WithCheckpoints(dir, s.cfg.CheckpointEvery)
	data, err := snap.LoadBytes(dir)
	if errors.Is(err, snap.ErrNoCheckpoint) {
		return RunScenario(s)
	}
	if err != nil {
		return nil, fmt.Errorf("sde: %w", err)
	}
	eng, err := sim.ResumeEngine(s.cfg, data)
	if err != nil {
		return nil, fmt.Errorf("sde: %w", err)
	}
	res, err := eng.Run()
	if err != nil {
		return nil, fmt.Errorf("sde: %w", err)
	}
	return &Report{res: res, scenario: s}, nil
}

// Aborted reports whether the run hit a resource cap, and why.
func (r *Report) Aborted() (bool, string) { return r.res.Aborted, r.res.AbortReason }

// Resumed reports whether the run continued from a durable checkpoint
// (see Resume). A resumed run's Wall includes the interrupted run's time.
func (r *Report) Resumed() bool { return r.res.Resumed }

// Stopped reports whether the run was cut short by a progress hook — a
// fleet worker stops a cancelled lease this way. A stopped run's results
// cover only part of its space and are discarded.
func (r *Report) Stopped() bool { return r.res.Stopped }

// Suspended reports whether the run paused at a depth horizon (an event
// budget) with live work remaining. A suspended run's frontier snapshot
// is the continuation payload the shard schedulers fan out as new work
// items; its report covers only the events before the horizon.
func (r *Report) Suspended() bool { return r.res.Suspended }

// Wall returns the wall-clock duration of the run.
func (r *Report) Wall() time.Duration { return r.res.Wall }

// States returns the final number of execution states.
func (r *Report) States() int { return r.res.FinalStates }

// Groups returns the number of dscenarios (COB) or dstates (COW/SDS).
func (r *Report) Groups() int { return r.res.Groups }

// DScenarios returns how many concrete network scenarios the final state
// population represents.
func (r *Report) DScenarios() *big.Int { return r.res.DScenarios }

// MemBytes returns the final modeled memory footprint.
func (r *Report) MemBytes() int64 { return r.res.FinalMem }

// PeakMemBytes returns the peak modeled memory footprint.
func (r *Report) PeakMemBytes() int64 { return r.res.PeakMem }

// MemTerms returns the two terms MemBytes is the sum of: growth in Pages
// is duplicated memory, growth in Overhead is duplicated bookkeeping.
func (r *Report) MemTerms() MemTerms { return r.res.FinalMemTerms }

// PeakMemTerms returns the two terms PeakMemBytes is the sum of. It is
// zero for a resumed run whose peak predates the checkpoint: snapshots
// carry the peak, not its split.
func (r *Report) PeakMemTerms() MemTerms { return r.res.PeakMemTerms }

// Instructions returns the total number of instructions executed.
func (r *Report) Instructions() uint64 { return r.res.Stats.VM.Instructions }

// Violations returns the assertion failures found, each with a concrete
// witness test case.
func (r *Report) Violations() []*Violation { return r.res.Violations }

// Samples returns the metrics time series (state and memory growth).
func (r *Report) Samples() []Sample { return r.res.Series.Samples() }

// Stats returns what every layer did on the run, cumulative over the
// processes that worked on it: a resumed run (Resume, a re-issued lease, a
// leaf rebuilt by AssembleSharded) reports what its checkpoint carried plus
// its own work. Its String is what sde-run prints. The accessors below
// return its parts; a part is all zero when its layer was off or the run
// was a replay.
func (r *Report) Stats() RunStats { return r.res.Stats }

// SolverStats returns the run's constraint-solver activity counters
// (queries, cache and pool hits, incremental solves, conflicts).
func (r *Report) SolverStats() SolverStats { return r.res.Stats.Solver }

// SpecStats returns the run's speculative-forking counters.
func (r *Report) SpecStats() SpecStats { return r.res.Stats.Spec }

// VMStats returns the run's VM counters (the block counters are zero when
// compiled execution is disabled).
func (r *Report) VMStats() VMStats { return r.res.Stats.VM }

// WithMerging returns the scenario unchanged.
//
// Deprecated: state merging was deleted (DESIGN §9). WithMerging, MergeStats
// and Report.MergeStats are inert stubs kept only because bench/ — which a
// PR that touches the engine may not edit — compiles against
// tr.scenario.WithMerging() and rep.MergeStats().Merges. Once bench/ drops
// its merge.* rows, delete all three.
func (s Scenario) WithMerging() Scenario { return s }

// MergeStats has nothing to count.
//
// Deprecated: a stub for bench/; see Scenario.WithMerging.
type MergeStats struct{ Merges uint64 }

// MergeStats returns the zero value.
//
// Deprecated: a stub for bench/; see Scenario.WithMerging.
func (r *Report) MergeStats() MergeStats { return MergeStats{} }

// WithReduction returns the scenario unchanged.
//
// Deprecated: symmetry reduction was deleted (DESIGN §10). WithReduction,
// ReduceStats and Report.ReduceStats are inert stubs kept only because
// bench/ — which a PR that touches the engine may not edit — compiles
// against rr.scenario.WithReduction() and rep.ReduceStats().Pins. Once
// bench/ drops its reduce.* rows, delete all three.
func (s Scenario) WithReduction() Scenario { return s }

// ReduceStats has nothing to count.
//
// Deprecated: a stub for bench/; see Scenario.WithReduction.
type ReduceStats struct{ Pins uint64 }

// ReduceStats returns the zero value.
//
// Deprecated: a stub for bench/; see Scenario.WithReduction.
func (r *Report) ReduceStats() ReduceStats { return ReduceStats{} }

// WithoutQueryOptimizer returns the scenario unchanged.
//
// Deprecated: the query optimizer was deleted (DESIGN §4); every run takes
// the solver's one pipeline. It is an inert stub kept only because bench/
// compiles against tr.scenario.WithoutQueryOptimizer(), as are the always-
// zero SolverStats fields SlicedQueries, RewriteHits and GatesElided. Once
// bench/ drops its qopt.* rows, delete them all.
func (s Scenario) WithoutQueryOptimizer() Scenario { return s }

// TestCases explodes up to limit dscenarios (limit <= 0 = all) and solves
// one concrete test case per dscenario (§IV-C).
func (r *Report) TestCases(limit int) ([]trace.TestCase, error) {
	return trace.FromResult(r.res, limit)
}

// StreamTestCases generates test cases incrementally without retaining
// them, bounding memory on large runs (§VI future work).
func (r *Report) StreamTestCases(limit int, fn func(tc trace.TestCase) error) error {
	return trace.Stream(r.res.Mapper, r.res.Ctx, limit, fn)
}

// Replay re-executes the scenario concretely under the given inputs.
func (r *Report) Replay(inputs Env) (*Report, error) {
	res, err := trace.Replay(r.scenario.cfg, inputs)
	if err != nil {
		return nil, fmt.Errorf("sde: %w", err)
	}
	return &Report{res: res, scenario: r.scenario}, nil
}

// ReplayViolation replays a violation's witness and reports whether the
// assertion fires again.
func (r *Report) ReplayViolation(v *Violation) (bool, *Report, error) {
	ok, res, err := trace.ReplayViolation(r.scenario.cfg, v)
	if err != nil {
		return false, nil, fmt.Errorf("sde: %w", err)
	}
	return ok, &Report{res: res, scenario: r.scenario}, nil
}

// MinimizeViolation shrinks a violation's witness to the injected
// failures that are actually needed to reproduce it (one-minimal delta
// debugging over concrete replays). It returns the minimised test case
// and the names of the load-bearing failure decisions.
func (r *Report) MinimizeViolation(v *Violation) (Env, []string, error) {
	minimal, needed, err := trace.MinimizeWitness(r.scenario.cfg, v)
	if err != nil {
		return nil, nil, fmt.Errorf("sde: %w", err)
	}
	return minimal, needed, nil
}

// NodeStates visits the final execution states grouped by node id.
func (r *Report) NodeStates() map[int][]*vm.State {
	out := make(map[int][]*vm.State)
	r.res.Mapper.ForEachState(func(s *vm.State) {
		out[s.NodeID()] = append(out[s.NodeID()], s)
	})
	return out
}

// Summary renders a one-line Table-I-style row: runtime, states, memory.
func (r *Report) Summary() string {
	status := ""
	if r.res.Aborted {
		status = " (aborted: " + r.res.AbortReason + ")"
	}
	return fmt.Sprintf("%-4s %-10s runtime=%-12s states=%-8d mem=%-10s dscenarios=%s%s",
		r.res.Algorithm, r.res.Topology, r.res.Wall.Round(time.Millisecond),
		r.res.FinalStates, metrics.FormatBytes(r.res.FinalMem),
		r.res.DScenarios.String(), status)
}

// Result exposes the underlying engine result for advanced consumers
// (benchmark harnesses, custom metrics processing).
func (r *Report) Result() *sim.Result { return r.res }

// CustomScenario assembles a scenario from raw parts, for workloads beyond
// the built-in ones. Program must define a "boot" function; "on_recv" is
// invoked for receptions when present.
func CustomScenario(desc string, cfg CustomConfig) (Scenario, error) {
	if cfg.Topology == nil {
		return Scenario{}, fmt.Errorf("sde: custom scenario needs a topology")
	}
	if cfg.Program == nil {
		return Scenario{}, fmt.Errorf("sde: custom scenario needs a program")
	}
	seen := make(map[int]bool, len(cfg.ShardableNodes))
	for _, n := range cfg.ShardableNodes {
		if n < 0 || n >= cfg.Topology.K() {
			return Scenario{}, fmt.Errorf(
				"sde: shardable node %d outside topology (k=%d)", n, cfg.Topology.K())
		}
		if seen[n] {
			return Scenario{}, fmt.Errorf("sde: shardable node %d listed twice", n)
		}
		seen[n] = true
		if !cfg.Failures.DropFirst[n] {
			return Scenario{}, fmt.Errorf(
				"sde: shardable node %d has no DropFirst failure armed", n)
		}
	}
	return Scenario{
		desc:      desc,
		shardable: append([]int(nil), cfg.ShardableNodes...),
		cfg: sim.Config{
			Topo:      cfg.Topology,
			Prog:      cfg.Program,
			Algorithm: cfg.Algorithm,
			Horizon:   cfg.HorizonTicks,
			Failures:  cfg.Failures,
			NodeInit:  cfg.NodeInit,
			Caps:      cfg.Caps,
		},
	}, nil
}

// CustomConfig parameterises CustomScenario.
type CustomConfig struct {
	Topology     Topology
	Program      *Program
	Algorithm    Algorithm
	HorizonTicks uint64
	Failures     FailurePlan
	NodeInit     func(node int, s *vm.State, eb *expr.Builder)
	Caps         Caps

	// ShardableNodes declares which armed DropFirst nodes' drop
	// decisions may be pinned for sharding (see RunScenarioSharded).
	// The caller vouches that each listed node's first reception
	// materialises in every execution — e.g. it is a radio neighbour of
	// a node that unconditionally broadcasts at boot. Listing a node
	// whose reception is conditional makes sharded coverage unsound
	// (the sub-space without the reception is explored by both halves).
	ShardableNodes []int
}
