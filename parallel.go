package sde

import (
	"errors"
	"fmt"
	"math/big"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"sde/internal/shard"
	"sde/internal/solver"
)

// The parallel SDE extension (paper §VI: "we plan to parallelize SDE's
// implementation ... we have to identify the sets of states which can be
// safely offloaded on other cores and thus can be independently
// executed"). The unit of independence used here is a partition of the
// dscenario space: pinning b symbolic failure decisions to fixed values
// yields 2^b disjoint sub-spaces that never exchange states, so each
// shard runs on a fully independent engine (own expression builder,
// solver, and state population) and the results merge by simple
// aggregation.
//
// Scheduling is adaptive: a bounded worker pool pulls shard work items
// from a shared queue (internal/shard — the same queue the exploration
// service's coordinator runs per job), and when a shard turns out to be
// a straggler — its live-state count or wall time crosses a threshold
// while other workers starve — the worker stops it mid-run and the queue
// splits it in place, pinning one more drop decision to produce two child
// shards. Light regions of the space stay coarse (one cheap run), heavy
// regions subdivide until the pool is balanced, without anyone guessing
// the skew up front. An optional cross-shard solver cache lets concurrent
// shards reuse each other's constraint verdicts.

// MaxShardBits reports how many failure decisions of the scenario can be
// used for sharding: log2 of the maximum shard count.
func (s Scenario) MaxShardBits() int { return len(s.shardable) }

// ShardConfig parameterises RunScenarioShardedWith. The zero value runs
// the whole scenario as a single work item on a GOMAXPROCS-sized pool
// with adaptive splitting disabled.
type ShardConfig struct {
	// ShardBits pre-splits the dscenario space into 2^ShardBits uniform
	// initial shards. It must not exceed the scenario's MaxShardBits.
	ShardBits int

	// Workers bounds the worker pool (0 = GOMAXPROCS; negative values
	// are rejected). Unlike the naive one-goroutine-per-shard scheme,
	// shard count and parallelism are independent: thousands of shards
	// can drain through a small pool.
	Workers int

	// MaxSplitBits caps how many drop decisions a shard may pin in
	// total, i.e. how deep adaptive splitting can subdivide. Values
	// below ShardBits are raised to ShardBits (which disables
	// splitting); values above MaxShardBits are clamped down to it.
	MaxSplitBits int

	// SplitThreshold is the live-state count beyond which a running
	// shard is considered a straggler and eligible for splitting
	// (default 4096).
	SplitThreshold int

	// SplitAfter is the wall-time analogue of SplitThreshold: a shard
	// running longer than this is eligible for splitting (default 2s).
	SplitAfter time.Duration

	// SharedSolverCache backs all shards with one cross-shard solver
	// query cache. Shards share pin-independent query components (the
	// bulk of distributed test-case queries), so later shards skip SAT
	// work the earlier ones already did.
	SharedSolverCache bool

	// CheckpointDir, when non-empty, makes the sharded run durable: each
	// shard checkpoints into its own subdirectory (named by its pinned
	// bit string), and a rerun with the same directory resumes every
	// shard from its last snapshot — finished shards replay nothing. The
	// resumed run may use a different Workers count; the partition, not
	// the pool, defines the shards.
	CheckpointDir string

	// CheckpointEvery selects each shard's periodic checkpoint schedule,
	// as Scenario.WithCheckpoints does: n > 0 is exact (every n processed
	// events), 0 is cost-paced (at most 1/8 of a shard's exploration time
	// goes into periodic checkpoints; a crash loses at most 8 checkpoint
	// costs — 16 ms before a shard's first — plus 256 events per shard).
	CheckpointEvery int

	// DepthHorizon, when non-zero, adds exploration depth as a second
	// shard dimension: every work item suspends once its cumulative
	// processed-event count reaches the next multiple of the horizon and
	// live work remains, and its surviving frontier fans out into
	// HorizonFanout continuation items that re-enter the queue like any
	// other shard. A scenario with zero shardable bits but deep branching
	// then still spreads across the pool. The (DepthHorizon,
	// HorizonFanout) pair is part of the partition definition: two runs —
	// local or distributed — produce bit-identical reports iff they agree
	// on it, exactly as they must agree on ShardBits.
	DepthHorizon uint64

	// HorizonFanout is how many continuation slices one suspension
	// produces (default 2 when DepthHorizon is set; ignored otherwise).
	// It is clamped to the suspended frontier's independently resumable
	// unit count (COB: live dscenarios; COW/SDS: 1 — those frontiers
	// continue as a chain rather than a fan). Deliberately NOT derived
	// from Workers: the fan-out shapes the leaf partition, and the
	// partition must not depend on pool size.
	HorizonFanout int
}

const (
	defaultSplitThreshold = 4096
	defaultSplitAfter     = 2 * time.Second
)

// ShardReport is the outcome of one shard of a sharded run.
type ShardReport struct {
	Shard  int
	Pin    map[string]uint64 // the failure decisions this shard fixes
	Report *Report
}

// ShardedReport aggregates a sharded scenario run.
type ShardedReport struct {
	Shards []ShardReport

	// Sched is the scheduler's telemetry: worker utilisation, steal and
	// split counts, and cross-shard solver-cache reuse.
	Sched SchedStats
}

// States returns the total number of final execution states across
// shards. Sharding trades sharing for parallelism, so the total is at
// least the unsharded count.
func (r *ShardedReport) States() int {
	n := 0
	for _, sh := range r.Shards {
		n += sh.Report.States()
	}
	return n
}

// DScenarios returns the total number of represented dscenarios — shards
// partition the space, so this equals the unsharded count.
func (r *ShardedReport) DScenarios() *big.Int {
	total := new(big.Int)
	for _, sh := range r.Shards {
		total.Add(total, sh.Report.DScenarios())
	}
	return total
}

// Violations returns all violations found across shards, in shard order:
// the same assertion failing in two shards belongs to two disjoint
// sub-spaces, so nothing is deduplicated.
func (r *ShardedReport) Violations() []*Violation {
	var out []*Violation
	for _, sh := range r.Shards {
		out = append(out, sh.Report.Violations()...)
	}
	return out
}

// Stats returns what every layer did across the run: the leaves' RunStats
// summed. A leaf that continued a suspended frontier reports its ancestors'
// work only if it is slice 0 of it, so nothing is counted twice.
func (r *ShardedReport) Stats() RunStats {
	var total RunStats
	for _, sh := range r.Shards {
		total = total.Add(sh.Report.Stats())
	}
	return total
}

// Wall returns the longest shard wall time (the critical-path lower
// bound on the makespan; Sched.Elapsed is the realised makespan).
func (r *ShardedReport) Wall() time.Duration {
	var maxWall time.Duration
	for _, sh := range r.Shards {
		if w := sh.Report.Wall(); w > maxWall {
			maxWall = w
		}
	}
	return maxWall
}

// Aborted reports whether any shard hit a resource cap.
func (r *ShardedReport) Aborted() (bool, string) {
	for _, sh := range r.Shards {
		if aborted, reason := sh.Report.Aborted(); aborted {
			return true, fmt.Sprintf("shard %d: %s", sh.Shard, reason)
		}
	}
	return false, ""
}

// leafResult is one completed work item of an in-process run: the live
// report, never a serialized snapshot.
type leafResult struct {
	item   ShardItem
	report *Report
}

// shardPool is the in-process transport over the shard queue: a fixed set
// of goroutines taking tasks under one mutex. The partition rules — what
// a split or a suspension puts back in the queue — are the queue's; the
// pool only runs items and decides when a straggler is worth stopping.
type shardPool struct {
	scenario Scenario
	cfg      ShardConfig // Workers, SplitThreshold, SplitAfter normalised
	cache    *solver.SharedCache

	mu      sync.Mutex
	cond    *sync.Cond
	q       *shard.Queue[leafResult]
	errs    []error
	resumed int
	busy    []time.Duration
}

// progressHook decides whether a running shard should stop and split: it
// must look like a straggler (states or wall time over threshold) while
// the queue is starving the pool. A full queue means splitting would
// only add overhead; a starved one means idle capacity is waiting for
// exactly this split.
func (p *shardPool) progressHook(states int, elapsed time.Duration) bool {
	if states <= p.cfg.SplitThreshold && elapsed < p.cfg.SplitAfter {
		return false
	}
	p.mu.Lock()
	starved := p.q.Queued() < p.cfg.Workers
	p.mu.Unlock()
	return starved
}

func (p *shardPool) worker(id int) {
	for {
		p.mu.Lock()
		for p.q.Queued() == 0 && p.q.InFlight() > 0 {
			p.cond.Wait()
		}
		t := p.q.Take(id)
		splittable := t != nil && p.q.Splittable(t)
		p.mu.Unlock()
		if t == nil {
			return
		}

		run := shardRun{task: t, every: p.cfg.CheckpointEvery, cache: p.cache}
		if splittable {
			run.progress = p.progressHook
		}
		if p.cfg.CheckpointDir != "" {
			run.dir = filepath.Join(p.cfg.CheckpointDir, t.Item.Dir())
		}
		start := time.Now()
		report, frontier, err := runShardItem(p.scenario, run)
		elapsed := time.Since(start)

		p.mu.Lock()
		p.busy[id] += elapsed
		if report != nil && report.Resumed() {
			p.resumed++
		}
		switch {
		case err != nil:
			p.errs = append(p.errs, fmt.Errorf("shard %s: %w", t.Item.Label(), err))
			p.q.Drop(t)
		case report.Stopped():
			p.q.Split(t)
		case report.Suspended():
			p.q.Suspend(t, report.res.SuspendUnits, report.res.Events, frontier)
		default:
			p.q.Leaf(t, leafResult{item: t.Item, report: report})
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// RunScenarioShardedWith runs the scenario partitioned across a worker
// pool according to cfg. The partitions are formed by pinning the
// symbolic drop decisions of *shardable* nodes — armed nodes that are
// radio neighbours of the traffic source, whose first reception (and
// hence their drop decision) materialises in every execution — so every
// shard explores a disjoint fraction of the dscenario space and their
// union is exactly the unsharded exploration. (Pinning a decision that
// might never materialise would replicate the sub-space in which it does
// not, double-counting coverage; built-in scenario constructors compute
// the safe set, and CustomConfig.ShardableNodes declares it for custom
// workloads.) Every shard runs with the scenario's own layers.
//
// Shard errors do not cancel the run; every failed shard's error is
// collected and the joined aggregate returned.
func RunScenarioShardedWith(s Scenario, cfg ShardConfig) (*ShardedReport, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("sde: Workers must be >= 0 (got %d); 0 means one per CPU", cfg.Workers)
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.SplitThreshold <= 0 {
		cfg.SplitThreshold = defaultSplitThreshold
	}
	if cfg.SplitAfter <= 0 {
		cfg.SplitAfter = defaultSplitAfter
	}
	q, err := shard.New[leafResult](shard.Partition{
		ShardBits:     cfg.ShardBits,
		DepthHorizon:  cfg.DepthHorizon,
		HorizonFanout: cfg.HorizonFanout,
	}, s.MaxShardBits(), cfg.MaxSplitBits)
	if err != nil {
		return nil, fmt.Errorf("sde: %w", err)
	}
	p := &shardPool{scenario: s, cfg: cfg, q: q, busy: make([]time.Duration, cfg.Workers)}
	p.cond = sync.NewCond(&p.mu)
	if cfg.SharedSolverCache {
		p.cache = solver.NewSharedCache()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < cfg.Workers; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.worker(id)
		}()
	}
	wg.Wait()

	if len(p.errs) > 0 {
		return nil, fmt.Errorf("sde: sharded run: %w", errors.Join(p.errs...))
	}

	sched := SchedStats{
		Workers:     cfg.Workers,
		Steals:      q.Steals,
		Splits:      q.Splits,
		Resumed:     p.resumed,
		Suspensions: q.Suspensions,
		WorkerBusy:  p.busy,
		Elapsed:     time.Since(start),
	}
	if p.cache != nil {
		st := p.cache.Stats()
		sched.SharedLookups = st.Lookups
		sched.SharedHits = st.Hits
	}
	return finalizeSharded(s, q.Leaves(), sched), nil
}

// finalizeSharded orders completed leaves into the final report. It is
// shared between the in-process scheduler and AssembleSharded, so a
// distributed run's report is assembled exactly like a local one.
func finalizeSharded(s Scenario, leaves []leafResult, sched SchedStats) *ShardedReport {
	// Order the leaves deterministically — lexicographically by pinned
	// bit string, LSB (first shardable decision) first, then by
	// continuation path — so shard indices are stable across scheduling
	// interleavings. Within one (depth, bits) base the continuation
	// paths are prefix-free (a valid cover), so element-wise (seg, of)
	// comparison with shorter-first tie-break is a total order.
	sort.Slice(leaves, func(i, j int) bool {
		a, b := leaves[i].item, leaves[j].item
		n := a.Depth
		if b.Depth < n {
			n = b.Depth
		}
		for bit := 0; bit < n; bit++ {
			ab := (a.Bits >> uint(bit)) & 1
			bb := (b.Bits >> uint(bit)) & 1
			if ab != bb {
				return ab < bb
			}
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		m := len(a.Cont)
		if len(b.Cont) < m {
			m = len(b.Cont)
		}
		for k := 0; k < m; k++ {
			if a.Cont[k].Seg != b.Cont[k].Seg {
				return a.Cont[k].Seg < b.Cont[k].Seg
			}
			if a.Cont[k].Of != b.Cont[k].Of {
				return a.Cont[k].Of < b.Cont[k].Of
			}
		}
		return len(a.Cont) < len(b.Cont)
	})
	shards := make([]ShardReport, len(leaves))
	for i, leaf := range leaves {
		leaf.report.scenario.desc = fmt.Sprintf("%s [shard %d/%d]",
			s.desc, i, len(leaves))
		shards[i] = ShardReport{Shard: i, Pin: leaf.report.scenario.cfg.Pin, Report: leaf.report}
	}
	sched.Shards = len(shards)
	return &ShardedReport{Shards: shards, Sched: sched}
}

// RunScenarioSharded runs the scenario split into 2^shardBits static
// partitions on a GOMAXPROCS-sized worker pool: RunScenarioShardedWith
// with adaptive splitting and the shared solver cache disabled.
//
// shardBits must not exceed the scenario's shardable node count, which
// MaxShardBits reports.
func RunScenarioSharded(s Scenario, shardBits int) (*ShardedReport, error) {
	return RunScenarioShardedWith(s, ShardConfig{ShardBits: shardBits})
}
