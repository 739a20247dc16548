// Package metrics collects the time series the paper's evaluation plots:
// the number of execution states and the modeled memory footprint of the
// whole SDE process over (wall and virtual) time — Figure 10's state
// growth and memory growth curves.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample is one measurement point: the columns of Figure 10. What each
// layer did by then is not sampled; RunStats has the totals.
type Sample struct {
	Wall          time.Duration // wall-clock time since the run started
	VirtualTime   uint64        // engine virtual clock (ticks)
	States        int           // live execution states
	Groups        int           // dscenarios (COB) or dstates (COW/SDS)
	MemBytes      int64         // modeled RAM (deduplicated pages + overheads)
	Instructions  uint64        // instructions executed so far
	SolverQueries int64         // constraint-solver queries issued so far
}

// Series accumulates samples in order.
type Series struct {
	samples []Sample
}

// Add appends a sample.
func (s *Series) Add(sm Sample) { s.samples = append(s.samples, sm) }

// Restore replaces the series with samples recovered from a checkpoint,
// so a resumed run's series continues where the interrupted one stopped.
func (s *Series) Restore(samples []Sample) {
	s.samples = append([]Sample(nil), samples...)
}

// Samples returns the recorded samples (shared slice; do not modify).
func (s *Series) Samples() []Sample { return s.samples }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// Last returns the most recent sample; ok is false when empty.
func (s *Series) Last() (Sample, bool) {
	if len(s.samples) == 0 {
		return Sample{}, false
	}
	return s.samples[len(s.samples)-1], true
}

// PeakMem returns the largest MemBytes seen.
func (s *Series) PeakMem() int64 {
	var peak int64
	for _, sm := range s.samples {
		if sm.MemBytes > peak {
			peak = sm.MemBytes
		}
	}
	return peak
}

// PeakStates returns the largest state count seen.
func (s *Series) PeakStates() int {
	peak := 0
	for _, sm := range s.samples {
		if sm.States > peak {
			peak = sm.States
		}
	}
	return peak
}

// Downsample returns at most n samples, evenly spaced, always keeping the
// first and last. It is used to keep figure outputs readable.
func (s *Series) Downsample(n int) []Sample {
	if n <= 0 || len(s.samples) <= n {
		return append([]Sample(nil), s.samples...)
	}
	out := make([]Sample, 0, n)
	step := float64(len(s.samples)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, s.samples[int(float64(i)*step+0.5)])
	}
	out[n-1] = s.samples[len(s.samples)-1]
	return out
}

// RunStats is the one carrier of a run's cumulative counters: what every
// layer did, in one part per layer. Each layer counts into its part
// directly, the engine reads the parts through one function, a snapshot
// carries the value, and a resumed engine reports the snapshot's value plus
// its own — so the counters cover the work done on the run by every process
// that had a hand in it, once. Add is the only way two values are combined.
type RunStats struct {
	Solver     SolverStats     `json:"solver"`
	Spec       SpecStats       `json:"spec"`
	VM         VMStats         `json:"vm"`
	Checkpoint CheckpointStats `json:"checkpoint"`
}

// SolverStats counts constraint-solver activity (internal/solver). Reads
// are only consistent when the solver is quiescent.
type SolverStats struct {
	// Queries counts entries into the solver: every feasibility call
	// (Feasible, FeasibleWith) and Witness call and, when a
	// feasibility call is partitioned, each of its independent components
	// again (they recurse through the whole pipeline so that each is
	// cached on its own). Where path conditions mix failure
	// literals with data constraints it is a multiple of the calls made,
	// and the components are what FastPath mostly answers.
	Queries         int64 `json:"queries,omitempty"`
	CacheHits       int64 `json:"cache_hits,omitempty"`       // answered from the exact-key query cache
	SubsumptionHits int64 `json:"subsumption_hits,omitempty"` // always 0: the subsumption index is deleted; kept because bench/ reads it
	SharedHits      int64 `json:"shared_hits,omitempty"`      // answered from the cross-solver shared cache
	PoolHits        int64 `json:"pool_hits,omitempty"`        // answered by re-using a previous model
	FastPath        int64 `json:"fast_path,omitempty"`        // answered by the syntactic literal scan
	Partitions      int64 `json:"partitions,omitempty"`       // queries split into independent components
	SATCalls        int64 `json:"sat_calls,omitempty"`        // CDCL runs (incremental and from-scratch)
	IncSolves       int64 `json:"inc_solves,omitempty"`       // CDCL runs answered by a persistent instance
	Conflicts       int64 `json:"conflicts,omitempty"`        // CDCL conflicts across all runs
	Decisions       int64 `json:"decisions,omitempty"`        // CDCL decisions across all runs
	EncodeSkips     int64 `json:"encode_skips,omitempty"`     // constraint encodes served by a persistent blast memo
	Gates           int64 `json:"gates,omitempty"`            // Tseitin gate variables allocated across all runs
	LearnedRetained int64 `json:"learned_retained,omitempty"` // learned clauses alive in the persistent instance (gauge; Add keeps the max)

	// Deprecated: always 0. The query optimizer that set them is deleted;
	// they stay because bench/ reads them.
	SlicedQueries int64 `json:"sliced_queries,omitempty"`
	RewriteHits   int64 `json:"rewrite_hits,omitempty"`
	GatesElided   int64 `json:"gates_elided,omitempty"`
}

// SpecStats counts speculative forking (internal/vm/spec.go): how many
// branch and assume decisions ran on ahead of their verdicts, how they
// resolved, and how long resolution took. The VM counts every field but
// Workers. All zero when speculation is disabled.
type SpecStats struct {
	// Workers is no longer set: speculation has no solver workers. Always
	// zero, it is left out of the snapshot's stats section (omitempty); it
	// goes with SpecStats when speculation is deleted (ROADMAP item 2c).
	Workers int `json:"workers,omitempty"`

	Submitted    int64 `json:"submitted,omitempty"`     // speculations made (a branch pair counts once)
	Pairs        int64 `json:"pairs,omitempty"`         // two-sided branch speculations
	Assumes      int64 `json:"assumes,omitempty"`       // single-query assume speculations
	Solves       int64 `json:"solves,omitempty"`        // feasibility queries resolution issued
	Elided       int64 `json:"elided,omitempty"`        // false-side verdicts answered by complement elision
	InflightPeak int64 `json:"inflight_peak,omitempty"` // most speculations pending at one resolution (max)

	Rewinds       int64 `json:"rewinds,omitempty"`         // speculative executions rewound onto the false side
	SpecKills     int64 `json:"spec_kills,omitempty"`      // states killed at resolution (infeasible assume, solver error)
	Removed       int64 `json:"removed,omitempty"`         // provisional constraints removed (one-sided-true branches)
	Barriers      int64 `json:"barriers,omitempty"`        // resolutions that found a speculation pending
	BarrierWaitNs int64 `json:"barrier_wait_ns,omitempty"` // total nanoseconds spent resolving (solving included)
}

// VMStats counts the VM's work: instructions and local forks, and — zero
// when compiled execution is disabled — how many basic-block executions ran
// on the concrete straight-line fast path versus falling back to the
// per-instruction interpreter, and how many fast-path instructions were
// answered by load-time constant folding.
type VMStats struct {
	Instructions uint64 `json:"instructions,omitempty"`  // instructions executed by all states
	Forks        uint64 `json:"forks,omitempty"`         // local symbolic branches taken
	FastBlocks   uint64 `json:"fast_blocks,omitempty"`   // block executions taken by the concrete fast path
	SlowBlocks   uint64 `json:"slow_blocks,omitempty"`   // block entries that fell back to the interpreter
	FoldedInstrs uint64 `json:"folded_instrs,omitempty"` // fast-path instructions answered by load-time folding
}

// CheckpointStats counts durable checkpoints (periodic ones plus the final
// or suspension one): how many were written, how many grid boundaries the
// cost-paced schedule passed without cutting one, and the wall time the
// written ones took from snapshot to durable file. A snapshot cannot count
// itself: a resumed run reports the checkpoints before the one it resumed
// from, plus its own. All zero without a checkpoint directory.
type CheckpointStats struct {
	Written int           `json:"written,omitempty"`
	Skipped int           `json:"skipped,omitempty"`
	Wall    time.Duration `json:"wall_ns,omitempty"`
}

// Add returns s + o: counters summed, peaks and sizes kept at the larger
// of the two.
func (s RunStats) Add(o RunStats) RunStats {
	s.Solver.Queries += o.Solver.Queries
	s.Solver.CacheHits += o.Solver.CacheHits
	s.Solver.SubsumptionHits += o.Solver.SubsumptionHits
	s.Solver.SharedHits += o.Solver.SharedHits
	s.Solver.PoolHits += o.Solver.PoolHits
	s.Solver.FastPath += o.Solver.FastPath
	s.Solver.Partitions += o.Solver.Partitions
	s.Solver.SATCalls += o.Solver.SATCalls
	s.Solver.IncSolves += o.Solver.IncSolves
	s.Solver.Conflicts += o.Solver.Conflicts
	s.Solver.Decisions += o.Solver.Decisions
	s.Solver.EncodeSkips += o.Solver.EncodeSkips
	s.Solver.Gates += o.Solver.Gates
	s.Solver.LearnedRetained = max(s.Solver.LearnedRetained, o.Solver.LearnedRetained)
	s.Solver.SlicedQueries += o.Solver.SlicedQueries
	s.Solver.RewriteHits += o.Solver.RewriteHits
	s.Solver.GatesElided += o.Solver.GatesElided

	s.Spec.Workers = max(s.Spec.Workers, o.Spec.Workers)
	s.Spec.Submitted += o.Spec.Submitted
	s.Spec.Pairs += o.Spec.Pairs
	s.Spec.Assumes += o.Spec.Assumes
	s.Spec.Solves += o.Spec.Solves
	s.Spec.Elided += o.Spec.Elided
	s.Spec.InflightPeak = max(s.Spec.InflightPeak, o.Spec.InflightPeak)
	s.Spec.Rewinds += o.Spec.Rewinds
	s.Spec.SpecKills += o.Spec.SpecKills
	s.Spec.Removed += o.Spec.Removed
	s.Spec.Barriers += o.Spec.Barriers
	s.Spec.BarrierWaitNs += o.Spec.BarrierWaitNs

	s.VM.Instructions += o.VM.Instructions
	s.VM.Forks += o.VM.Forks
	s.VM.FastBlocks += o.VM.FastBlocks
	s.VM.SlowBlocks += o.VM.SlowBlocks
	s.VM.FoldedInstrs += o.VM.FoldedInstrs

	s.Checkpoint.Written += o.Checkpoint.Written
	s.Checkpoint.Skipped += o.Checkpoint.Skipped
	s.Checkpoint.Wall += o.Checkpoint.Wall
	return s
}

// String renders what each layer did, one line per part that did anything.
func (s RunStats) String() string {
	var sb strings.Builder
	if v := s.VM; v != (VMStats{}) {
		fmt.Fprintf(&sb, "vm: instructions=%d forks=%d fast-blocks=%d slow-blocks=%d folded=%d\n",
			v.Instructions, v.Forks, v.FastBlocks, v.SlowBlocks, v.FoldedInstrs)
	}
	if q := s.Solver; q != (SolverStats{}) {
		fmt.Fprintf(&sb, "solver: queries=%d sat-calls=%d cache-hits=%d fast-path=%d conflicts=%d gates=%d\n",
			q.Queries, q.SATCalls, q.CacheHits, q.FastPath, q.Conflicts, q.Gates)
	}
	if p := s.Spec; p.Submitted != 0 {
		fmt.Fprintf(&sb, "spec: submitted=%d (pairs=%d assumes=%d) solves=%d elided=%d rewinds=%d kills=%d barrier-wait=%s\n",
			p.Submitted, p.Pairs, p.Assumes, p.Solves, p.Elided, p.Rewinds, p.SpecKills,
			time.Duration(p.BarrierWaitNs).Round(time.Microsecond))
	}
	if c := s.Checkpoint; c != (CheckpointStats{}) {
		fmt.Fprintf(&sb, "checkpoints: written=%d skipped=%d wall=%v\n", c.Written, c.Skipped, c.Wall.Round(time.Microsecond))
	}
	return sb.String()
}

// SchedStats summarises one parallel scheduler run: how the shard pool
// spent its workers on a fixed partition — per-worker utilisation, stolen
// continuation items, suspensions, and cross-shard solver-cache reuse.
// What the shards themselves did is the sum of their RunStats.
type SchedStats struct {
	Workers     int // worker pool size
	Shards      int // leaf shards that ran to completion
	Steals      int // continuation items run by a worker other than their parent's
	Resumed     int // work items restored from durable checkpoints
	Suspensions int // runs suspended at a depth horizon and fanned out as continuations

	SharedLookups int64 // cross-shard solver cache lookups
	SharedHits    int64 // lookups answered from the cross-shard cache

	WorkerBusy []time.Duration // per-worker time spent running shards
	Elapsed    time.Duration   // scheduler wall time (the makespan)
}

// SharedHitRate returns the fraction of cross-shard cache lookups that
// were answered from the cache (0 when the cache was off or unused).
func (s SchedStats) SharedHitRate() float64 {
	if s.SharedLookups == 0 {
		return 0
	}
	return float64(s.SharedHits) / float64(s.SharedLookups)
}

// Utilization returns each worker's busy fraction of the scheduler wall
// time, clamped to [0, 1].
func (s SchedStats) Utilization() []float64 {
	out := make([]float64, len(s.WorkerBusy))
	if s.Elapsed <= 0 {
		return out
	}
	for i, busy := range s.WorkerBusy {
		u := float64(busy) / float64(s.Elapsed)
		if u > 1 {
			u = 1
		}
		out[i] = u
	}
	return out
}

// MeanUtilization returns the pool-wide average busy fraction.
func (s SchedStats) MeanUtilization() float64 {
	us := s.Utilization()
	if len(us) == 0 {
		return 0
	}
	total := 0.0
	for _, u := range us {
		total += u
	}
	return total / float64(len(us))
}

// String renders a one-line scheduling summary.
func (s SchedStats) String() string {
	shared := "off"
	if s.SharedLookups > 0 {
		shared = fmt.Sprintf("%.0f%%", 100*s.SharedHitRate())
	}
	return fmt.Sprintf("workers=%d shards=%d steals=%d shared-hit=%s util=%.0f%% makespan=%s",
		s.Workers, s.Shards, s.Steals, shared,
		100*s.MeanUtilization(), s.Elapsed.Round(time.Millisecond))
}

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// AsciiChart renders a crude log-scale chart of one column over sample
// index — enough to eyeball the Figure 10 curve shapes in a terminal.
func AsciiChart(title string, series map[string][]Sample, value func(Sample) float64, width int) string {
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteByte('\n')
	maxV := 1.0
	for _, ss := range series {
		for _, sm := range ss {
			if v := value(sm); v > maxV {
				maxV = v
			}
		}
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ss := series[name]
		fmt.Fprintf(&sb, "%-4s |", name)
		pts := resample(ss, width)
		for _, sm := range pts {
			v := value(sm)
			frac := logFrac(v, maxV)
			sb.WriteByte(" .:-=+*#%@"[int(frac*9.999)])
		}
		last := 0.0
		if len(ss) > 0 {
			last = value(ss[len(ss)-1])
		}
		fmt.Fprintf(&sb, "| final %.4g\n", last)
	}
	return sb.String()
}

func resample(ss []Sample, n int) []Sample {
	if len(ss) == 0 {
		return nil
	}
	out := make([]Sample, n)
	div := n - 1
	if div < 1 {
		div = 1
	}
	for i := 0; i < n; i++ {
		out[i] = ss[i*(len(ss)-1)/div]
	}
	return out
}

func logFrac(v, maxV float64) float64 {
	if v <= 1 {
		return 0
	}
	if maxV <= 1 {
		return 1
	}
	l := math.Log2(v) / math.Log2(maxV)
	if l > 1 {
		l = 1
	}
	return l
}
