package sim

import (
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"time"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/isa"
	"sde/internal/metrics"
	"sde/internal/solver"
	"sde/internal/vm"
)

// FailurePlan selects which nodes are subject to which symbolic network
// failures (paper §IV-A). Each failure triggers on a state's first
// reception and forks the receiving state: one side experiences the
// failure, the other does not.
type FailurePlan struct {
	// DropFirst: the first received packet is symbolically dropped above
	// the radio ("in one state the radio receives the packet while in the
	// other the packet is dropped").
	DropFirst map[int]bool
	// DuplicateFirst: the first received packet is symbolically
	// duplicated (the receive handler runs twice in one branch).
	DuplicateFirst map[int]bool
	// RebootOnFirst: the node symbolically reboots upon its first
	// reception, losing volatile state.
	RebootOnFirst map[int]bool
}

// NodeSet builds a membership map from a node list.
func NodeSet(nodes []int) map[int]bool {
	set := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		set[n] = true
	}
	return set
}

// Caps bound a run; the paper capped the COB run at ~40 GB RAM and aborted
// it ("we had to abort the test after 9 hours of execution due to the
// physical memory limit").
type Caps struct {
	MaxStates       int           // abort when live states exceed this (0 = unlimited)
	MaxMemBytes     int64         // abort when modeled RAM exceeds this (0 = unlimited)
	MaxWall         time.Duration // abort after this much wall time (0 = unlimited)
	MaxInstructions uint64        // abort after this many instructions (0 = unlimited)
}

// Config describes one SDE run.
type Config struct {
	Topo      Topology
	Prog      *isa.Program
	Algorithm core.Algorithm

	// BootFn and RecvFn name the entry points; they default to "boot"
	// and "on_recv". RecvFn may be absent if the program never receives.
	BootFn string
	RecvFn string

	// RXBufAddr is the word address the runtime copies received payloads
	// to before invoking RecvFn (default 0x8000).
	RXBufAddr uint32

	// Latency is the transmission delay in ticks (default 2, minimum 1).
	Latency uint64

	// Horizon stops the run at this virtual time; events scheduled later
	// are not executed (paper: "The simulation time is 10 seconds").
	Horizon uint64

	// EventBudget, when > 0, suspends the run once the cumulative
	// processed-event count reaches it and live pre-horizon work remains:
	// Step returns false and the Result reports Suspended. The count is
	// absolute — a resumed engine continues from the snapshot's event
	// counter — so a chain of suspensions lands on the same boundaries no
	// matter how many times the run was checkpointed, crashed, or shipped
	// between processes. This is the depth-horizon cutoff behind
	// continuation sharding: the surviving frontier is snapshotted and
	// re-partitioned instead of finishing on one engine.
	EventBudget uint64

	Failures FailurePlan

	// NodeInit seeds per-node memory (roles, routing tables) before boot.
	NodeInit func(node int, s *vm.State, eb *expr.Builder)

	Caps Caps

	// StepBudget bounds instructions per event handler activation.
	StepBudget int

	// SampleEvery takes a metrics sample every n processed events
	// (default 64; 0 disables all sampling except the final one).
	SampleEvery int

	// CheckInvariants runs the mapper's structural self-checks after
	// every mapping operation. Expensive; meant for tests.
	CheckInvariants bool

	// Replay, when non-nil, runs one concrete execution instead of a
	// symbolic one: symbolic inputs take their value from this test case
	// and failure decisions follow their variables (0 selects the
	// failure branch, matching the solver's don't-care default). No
	// forking occurs; the run yields exactly one state per node.
	Replay expr.Env

	// Pin pre-decides individual failure variables without forking: the
	// named decision takes the given value (0 = failure branch) and the
	// matching constraint is still added to the path condition, so test
	// cases and dscenario fingerprints remain complete. Pinning
	// partitions the dscenario space — the mechanism behind the parallel
	// SDE extension (paper §VI): shards explore disjoint halves of the
	// space on independent engines.
	Pin map[string]uint64

	// Progress, when non-nil, is polled between events (every
	// progressPollEvents processed events) with the number of adopted
	// states and the elapsed wall time. Returning true stops the run:
	// Step returns false and the Result reports Stopped. The adaptive
	// shard scheduler uses this to cut a straggling shard short and
	// re-partition it instead of waiting it out.
	Progress func(states int, elapsed time.Duration) (stop bool)

	// SharedSolverCache, when non-nil, backs this run's solver with a
	// cross-run query cache, so concurrent shards reuse each other's
	// constraint verdicts (pin-independent query components recur in
	// every shard).
	SharedSolverCache *solver.SharedCache

	// Solver tunes the run's constraint solver (ablation switches,
	// conflict budget). The zero value enables every optimisation. A
	// non-nil SharedSolverCache overrides Solver.SharedCache.
	Solver solver.Options

	// CheckpointDir, when non-empty, makes the run durable: a snapshot of
	// the full exploration frontier is written there (atomic
	// write-rename, plus an append-only journal line) on the schedule
	// CheckpointEvery selects and — by Run — once more on completion or
	// suspension (a RunItem that ships its outcome skips that last write).
	// A crashed run restarts from the last snapshot via ResumeEngine.
	CheckpointDir string

	// CheckpointEvery selects the periodic checkpoint schedule; it is only
	// meaningful with CheckpointDir. n > 0 is exact: a checkpoint after
	// every n processed events, whatever it costs. 0 (the default) is
	// cost-paced: a checkpoint may be cut every checkpointGrid events, and
	// is only once the exploration since the previous checkpoint finished
	// has taken at least checkpointPace times what that checkpoint cost
	// (snapshot, encode, write and fsync, measured; checkpointFloor before
	// a process, fresh or resumed, has written its first). Periodic
	// checkpoints then take at most 1/checkpointPace of the wall time spent
	// exploring, and a crash loses at most checkpointPace times the last
	// checkpoint's cost — checkpointPace floors before the first — plus one
	// grid step of work. Either schedule writes the same bytes at the
	// boundaries it picks; resuming is bit-identical from any of them.
	CheckpointEvery int

	// Layers selects the optional execution layers (compiled fast path,
	// speculation, query optimizer); see Layers for the triage order.
	// Replay runs never speculate: they hold a single concrete path.
	Layers Layers
}

// Result summarises a finished (or aborted) run.
type Result struct {
	Algorithm   core.Algorithm
	Topology    string
	Aborted     bool
	AbortReason string
	// Stopped reports that the Progress hook ended the run early; the
	// result covers only the explored prefix and its consumer (the shard
	// scheduler) is expected to discard it and re-partition.
	Stopped bool
	// Resumed reports that the run continued from a durable checkpoint
	// rather than starting fresh. Wall includes the time the interrupted
	// run(s) already spent.
	Resumed bool
	// Suspended reports that the run hit its EventBudget with live
	// pre-horizon work remaining. The frontier snapshot written at the
	// suspension point is the continuation; SuspendUnits says how many
	// disjoint slices it supports (see ResumeEngineSlice).
	Suspended bool
	// SuspendUnits is the number of independently resumable slices of a
	// suspended frontier: COB dscenarios are disjoint state sets, so each
	// row can continue on its own engine; COW/SDS states share structure
	// across the whole frontier and yield a single unit.
	SuspendUnits int

	Wall        time.Duration
	VirtualTime uint64
	Events      uint64

	FinalStates int
	PeakStates  int
	Groups      int
	DScenarios  *big.Int
	FinalMem    int64
	PeakMem     int64
	// FinalMemTerms and PeakMemTerms split FinalMem and PeakMem. Checkpoints
	// carry the peak, not its split: PeakMemTerms is zero when a resumed
	// run never exceeded the peak it inherited.
	FinalMemTerms MemTerms
	PeakMemTerms  MemTerms

	Violations []*vm.Violation
	Series     *metrics.Series

	// Stats is what every layer did, cumulative over the processes that
	// worked on the run: a resumed run reports what its snapshot carried
	// plus its own (see Engine.stats). A part is zero when its layer was off.
	Stats metrics.RunStats

	// Mapper and Ctx expose the final symbolic state population for
	// post-processing: dscenario explosion, test-case generation.
	Mapper core.Mapper[*vm.State]
	Ctx    *vm.Context
}

// Engine executes one SDE run. Create with NewEngine, then call Run (or
// Step repeatedly for fine-grained control in tests).
type Engine struct {
	cfg    Config
	ctx    *vm.Context
	mapper core.Mapper[*vm.State]

	states   []*vm.State
	runnable []*vm.State // mid-event states (branch siblings), LIFO
	evHeap   entryHeap
	entrySeq map[*vm.State]uint64

	clock      uint64
	events     uint64
	peakStates int
	peakMem    int64
	peakTerms  MemTerms // the split of peakMem, when this engine measured it
	violations []*vm.Violation
	series     metrics.Series
	started    time.Time
	priorWall  time.Duration // wall time spent before a resume
	lastCkpt   uint64        // events count at the last written checkpoint
	resumed    bool

	// Checkpoint schedule and cost (see Config.CheckpointEvery). ckptCost
	// and ckptDone describe the last checkpoint this engine wrote; a zero
	// cost means none yet, and ckptDone is then when the engine was built.
	now      func() time.Time // time.Now; tests model checkpoint cost with it
	ckptGrid uint64           // events between boundaries a checkpoint may be cut at
	ckptDone time.Time
	ckptCost time.Duration

	// Counters (see stats). base is what the snapshot this engine resumed
	// from carried: zero for a fresh run and for every slice of a frontier
	// but slice 0. own is the engine's share of the live ones — speculation
	// resolution, checkpoints; the solver, the VM context and the
	// speculation pool count the rest themselves.
	base, own metrics.RunStats

	bootFn, recvFn int
	aborted        bool
	abortReason    string
	stopped        bool
	suspended      bool
	finished       bool
	err            error

	// Per-state overhead accounting (see modelBytes): overhead is the sum
	// over the population as of the last sample, touched the states that
	// may have changed theirs since. While overheadValid is false the next
	// sample sums everything.
	overhead      int64
	touched       []*vm.State
	overheadValid bool

	// Speculative-fork pipeline (see speculate.go). specPending holds the
	// unresolved speculations of the currently executing state, in
	// creation order.
	specPool    *solver.SpecPool
	specPending []specEntry

	// Violation witnesses in flight (see witness.go): witnessSlots bounds
	// the solving goroutines to GOMAXPROCS, witnessJobs lists the
	// violations reported since the last join, in report order.
	witnessSlots chan struct{}
	witnessWG    sync.WaitGroup
	witnessJobs  []*witnessJob
	witnessErr   error
}

// The cost-paced checkpoint schedule (Config.CheckpointEvery == 0): a
// periodic checkpoint may be cut every checkpointGrid processed events —
// one clock read per boundary is the schedule's whole overhead — and is,
// once exploration has run checkpointPace times as long as the previous
// checkpoint took. checkpointFloor stands in for that cost before the
// first checkpoint: what the smallest durable write (create, fsync,
// rename, journal line) measured on the reference host.
const (
	checkpointGrid  = 256
	checkpointPace  = 8
	checkpointFloor = 2 * time.Millisecond
)

// progressPollEvents is how often (in processed events) Step consults
// the Progress hook. Events are coarse units of work — a single event
// can fork hundreds of states in a heavily symbolic handler — so the
// hook is polled on every event: a straggler is caught at the first
// event boundary after its state population explodes, and the per-event
// cost of the poll is invisible next to event processing itself.
const progressPollEvents = 1

type heapEntry struct {
	time    uint64
	stateID uint64
	seq     uint64
	state   *vm.State
}

// entryHeap is the engine's event heap: a binary min-heap on (time,
// stateID). push and pop are the standard library's heap.Push and heap.Pop
// written for the element type — the same comparisons and the same swaps,
// without boxing every entry in an interface on the way in and on the way
// out. The exact algorithm matters: less ties between a state's live entry
// and its stale duplicates, so another correct heap could pop them in
// another order (TestEntryHeapDifferential holds the two together).
type entryHeap []heapEntry

func (h entryHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].stateID < h[j].stateID
}

func (h *entryHeap) push(e heapEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *entryHeap) pop() heapEntry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	e := old[n]
	old[n] = heapEntry{} // the spare capacity must not keep the state alive
	*h = old[:n]
	return e
}

func (h entryHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h entryHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// newEngineShell validates the configuration, applies defaults, and
// builds an engine without any states or mapper — the part of engine
// construction shared by NewEngine (fresh run) and ResumeEngine
// (checkpoint restore).
func newEngineShell(cfg Config) (*Engine, error) {
	if cfg.Topo == nil {
		return nil, errors.New("sim: config needs a topology")
	}
	if cfg.Prog == nil {
		return nil, errors.New("sim: config needs a program")
	}
	if cfg.BootFn == "" {
		cfg.BootFn = "boot"
	}
	if cfg.RecvFn == "" {
		cfg.RecvFn = "on_recv"
	}
	if cfg.RXBufAddr == 0 {
		cfg.RXBufAddr = 0x8000
	}
	if cfg.Latency == 0 {
		cfg.Latency = 2
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 64
	}
	bootFn := cfg.Prog.FuncIndex(cfg.BootFn)
	if bootFn < 0 {
		return nil, fmt.Errorf("sim: program lacks boot function %q", cfg.BootFn)
	}
	recvFn := cfg.Prog.FuncIndex(cfg.RecvFn) // may be -1: send-only programs

	layers := cfg.Layers
	sopts := cfg.Solver
	if cfg.SharedSolverCache != nil {
		sopts.SharedCache = cfg.SharedSolverCache
	}
	if layers.NoQopt {
		sopts.DisableSlicing = true
		sopts.DisableRewrite = true
		sopts.DisableConcretization = true
	}
	ctx := vm.NewContextWithSolver(sopts)
	ctx.Replay = cfg.Replay
	if layers.NoCompile {
		ctx.SetCompiledIR(false)
	} else {
		// Compile eagerly so the (one-off) CREATE/BUILD cost is paid at
		// load time, not on the first event of the first state.
		cfg.Prog.IR()
	}
	e := &Engine{
		cfg:      cfg,
		ctx:      ctx,
		entrySeq: make(map[*vm.State]uint64),
		bootFn:   bootFn,
		recvFn:   recvFn,
		started:  time.Now(),
		now:      time.Now,
		ckptGrid: checkpointGrid,

		witnessSlots: make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
	e.ckptDone = e.started
	if cfg.CheckpointEvery > 0 {
		e.ckptGrid = uint64(cfg.CheckpointEvery)
	}
	if !layers.NoSpeculate && cfg.Replay == nil {
		e.specPool = solver.NewSpecPool(ctx.Solver, runtime.GOMAXPROCS(0))
		ctx.SetSpecHooks((*engineHooks)(e))
	}
	return e, nil
}

// NewEngine validates the configuration and builds the initial k node
// states (node i runs cfg.Prog with a boot event at time 0).
func NewEngine(cfg Config) (*Engine, error) {
	e, err := newEngineShell(cfg)
	if err != nil {
		return nil, err
	}
	cfg = e.cfg // with defaults applied
	ctx := e.ctx
	mapper, err := core.New[*vm.State](cfg.Algorithm, cfg.Topo.K())
	if err != nil {
		return nil, err
	}
	e.mapper = mapper
	for node := 0; node < cfg.Topo.K(); node++ {
		s := vm.NewState(ctx, cfg.Prog, node)
		if cfg.NodeInit != nil {
			cfg.NodeInit(node, s, ctx.Exprs)
		}
		s.PushEvent(vm.Event{Time: 0, Kind: vm.EventBoot, Fn: e.bootFn})
		e.states = append(e.states, s)
		mapper.Register(s)
		e.scheduleHeap(s)
	}
	e.peakStates = len(e.states)
	return e, nil
}

// Ctx returns the engine's VM context.
func (e *Engine) Ctx() *vm.Context { return e.ctx }

// Mapper returns the engine's state mapper.
func (e *Engine) Mapper() core.Mapper[*vm.State] { return e.mapper }

// Clock returns the current virtual time.
func (e *Engine) Clock() uint64 { return e.clock }

// NumStates returns the number of states the engine has adopted.
func (e *Engine) NumStates() int { return len(e.states) }

// scheduleHeap (re-)registers the state's earliest pending event in the
// global heap. Stale entries are invalidated via the per-state sequence.
func (e *Engine) scheduleHeap(s *vm.State) {
	t, ok := s.NextEventTime()
	if !ok || s.Status() != vm.StatusIdle {
		return
	}
	e.entrySeq[s]++
	e.evHeap.push(heapEntry{time: t, stateID: s.ID(), seq: e.entrySeq[s], state: s})
}

// adopt integrates mapper- or failure-created states into the engine.
func (e *Engine) adopt(states []*vm.State) {
	e.touch(states...)
	for _, s := range states {
		e.states = append(e.states, s)
		e.scheduleHeap(s)
	}
	if len(e.states) > e.peakStates {
		e.peakStates = len(e.states)
	}
}

// Step processes the next pending event (including all branch siblings it
// spawns). It returns false when the run is complete: no events remain
// before the horizon, the run was aborted, or a fatal error occurred.
func (e *Engine) Step() bool {
	if e.finished || e.aborted || e.stopped || e.suspended || e.err != nil {
		return false
	}
	if e.cfg.EventBudget > 0 && e.events >= e.cfg.EventBudget {
		// Depth-horizon cutoff. The speculation pipeline is fully drained
		// at the end of every activation, so between Steps it is always
		// empty and the frontier can be snapshotted as it stands.
		if e.hasLiveWork() {
			e.suspended = true
			return false
		}
		// Nothing live before the horizon: finish normally below.
	}
	if reason := e.capExceeded(); reason != "" {
		e.abort(reason)
		return false
	}
	if e.cfg.Progress != nil && e.events%progressPollEvents == 0 {
		if e.cfg.Progress(len(e.states), time.Since(e.started)) {
			e.stopped = true
			return false
		}
	}
	for {
		if len(e.evHeap) == 0 {
			e.finished = true
			return false
		}
		entry := e.evHeap.pop()
		s := entry.state
		if entry.seq != e.entrySeq[s] || s.Status() != vm.StatusIdle {
			continue // stale
		}
		t, ok := s.NextEventTime()
		if !ok {
			continue
		}
		if t != entry.time {
			e.scheduleHeap(s)
			continue
		}
		if e.cfg.Horizon > 0 && t > e.cfg.Horizon {
			// Nothing before the horizon remains for this state; the heap
			// is time-ordered, so the whole run is done.
			e.finished = true
			return false
		}
		e.clock = t
		e.touch(s)
		e.processEvent(s)
		e.events++
		if e.cfg.SampleEvery > 0 && e.events%uint64(e.cfg.SampleEvery) == 0 {
			e.sample()
		}
		if e.err == nil && e.cfg.CheckpointDir != "" && e.events != e.lastCkpt &&
			e.events%e.ckptGrid == 0 {
			// Between Steps every state is at an event boundary (idle,
			// halted, or dead) — the only sound checkpoint point.
			if now := e.now(); !e.checkpointDue(now) {
				e.own.Checkpoint.Skipped++
			} else if cerr := e.writeCheckpoint(now); cerr != nil {
				e.err = fmt.Errorf("sim: checkpoint: %w", cerr)
			}
		}
		return e.err == nil && !e.aborted
	}
}

// hasLiveWork reports whether any state still has a pending event inside
// the virtual-time horizon — the condition under which hitting the
// EventBudget suspends instead of finishing.
func (e *Engine) hasLiveWork() bool {
	for _, s := range e.states {
		if s.Status() != vm.StatusIdle {
			continue
		}
		t, ok := s.NextEventTime()
		if !ok {
			continue
		}
		if e.cfg.Horizon == 0 || t <= e.cfg.Horizon {
			return true
		}
	}
	return false
}

// Run drives the engine to completion and returns the result. With a
// CheckpointDir the run ends durable: its final snapshot is written there.
func (e *Engine) Run() (*Result, error) {
	res, _, err := e.RunItem(false)
	return res, err
}

// RunItem is Run for one work item of a partitioned run, whose transport
// says what becomes of the final snapshot — the frontier the run ended at.
// Without ship it goes to CheckpointDir, as Run's does: someone reads that
// directory after this process (a checkpointed run, a durable sharded run).
// With ship — a lease — it is returned instead, and the directory holds only
// the periodic checkpoints a re-issued lease resumes from. A suspended run
// returns it either way: its continuations have no other source. The
// snapshot is taken and encoded at most once, and nothing written is read
// back. A run its Progress hook stopped has none: its result is discarded by
// contract (straggler split, cancel), and the injected worker crash that
// stops a run this way must leave behind only what a kill would.
func (e *Engine) RunItem(ship bool) (*Result, []byte, error) {
	for e.Step() {
	}
	// Nothing executes any more: stop the solver workers and wait for the
	// witnesses now, so the final snapshot below carries the counters and
	// models Finish reports.
	e.closeSpecPool()
	werr := e.joinWitnesses()
	if e.err != nil {
		return nil, nil, e.err
	}
	if werr != nil {
		return nil, nil, werr
	}
	// A final checkpoint makes completed runs durable too: resuming a
	// finished run replays zero events and reports the same result.
	keep := !ship && e.cfg.CheckpointDir != "" && e.events != e.lastCkpt
	var final []byte
	if !e.stopped && (keep || ship || e.suspended) {
		begin := e.now()
		sp, data, err := e.encodeSnapshot()
		if err == nil && keep {
			err = e.saveCheckpoint(sp, data, begin)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("sim: final snapshot: %w", err)
		}
		final = data
	}
	return e.Finish(), final, nil
}

// Finish finalises metrics and assembles the result. It may be called
// once, after Step has returned false. A witness that failed leaves its
// violation without a model here; RunItem returns that failure instead.
func (e *Engine) Finish() *Result {
	e.closeSpecPool()
	_ = e.joinWitnesses() // a failure is RunItem's to report
	terms := e.sample()
	mem := terms.Total()
	res := &Result{
		Algorithm:   e.cfg.Algorithm,
		Topology:    e.cfg.Topo.Name(),
		Aborted:     e.aborted,
		AbortReason: e.abortReason,
		Stopped:     e.stopped,
		Suspended:   e.suspended,
		Resumed:     e.resumed,
		Wall:        e.priorWall + time.Since(e.started),
		VirtualTime: e.clock,
		Events:      e.events,
		FinalStates: e.mapper.NumStates(),
		PeakStates:  e.peakStates,
		Groups:      e.mapper.NumGroups(),
		DScenarios:  e.mapper.DScenarioCount(),
		FinalMem:    mem,
		PeakMem:     e.peakMem,
		Violations:  e.violations,
		Series:      &e.series,
		Stats:       e.stats(),
		Mapper:      e.mapper,
		Ctx:         e.ctx,
	}
	if e.suspended {
		// COB keeps every state in exactly one dscenario
		// (core.COB.CheckInvariants), so each row is an independently
		// resumable slice. COW/SDS frontiers share buckets/virtual states
		// across the whole population and continue as one unit.
		if e.cfg.Algorithm == core.COBAlgorithm {
			res.SuspendUnits = e.mapper.NumGroups()
		} else {
			res.SuspendUnits = 1
		}
	}
	res.FinalMemTerms, res.PeakMemTerms = terms, e.peakTerms
	if res.PeakMem < mem {
		res.PeakMem, res.PeakMemTerms = mem, terms
	}
	return res
}

func (e *Engine) abort(reason string) {
	e.aborted = true
	e.abortReason = reason
}

func (e *Engine) capExceeded() string {
	c := e.cfg.Caps
	if c.MaxStates > 0 && len(e.states) > c.MaxStates {
		return fmt.Sprintf("state cap exceeded (%d > %d)", len(e.states), c.MaxStates)
	}
	if c.MaxInstructions > 0 {
		if n := e.base.VM.Instructions + e.ctx.Instructions(); n > c.MaxInstructions {
			return fmt.Sprintf("instruction cap exceeded (%d)", n)
		}
	}
	if c.MaxWall > 0 && e.priorWall+time.Since(e.started) > c.MaxWall {
		return fmt.Sprintf("wall-time cap exceeded (%v)", c.MaxWall)
	}
	// The memory cap is checked on sampling ticks (see sample): the
	// footprint is cheap to read here too, but that would move the abort
	// point, and so the state counts and digests, of every capped run.
	return ""
}

// processEvent applies the failure models, runs the event's handler to
// completion, and drains the branch siblings this produced.
func (e *Engine) processEvent(s *vm.State) {
	e.applyFailures(s)
	if s.Status() != vm.StatusIdle {
		return
	}
	// A failure model may have consumed or deferred the activation
	// (replayed drop, reboot); hand the state back to the scheduler.
	if t, ok := s.NextEventTime(); !ok || t != e.clock {
		e.scheduleHeap(s)
		return
	}
	ev, ok := s.PeekEvent()
	if !ok {
		return
	}
	if ev.Kind == vm.EventRecv && e.recvFn < 0 {
		// No receive handler: the packet is consumed silently.
		s.DropEvent()
		e.scheduleHeap(s)
		return
	}
	s.BeginEvent(e.cfg.RXBufAddr)
	e.runToCompletion(s)
	for len(e.runnable) > 0 {
		sib := e.runnable[len(e.runnable)-1]
		e.runnable = e.runnable[:len(e.runnable)-1]
		e.runToCompletion(sib)
	}
}

// runToCompletion drives one mid-event state until its handler returns.
// With speculation on, the activation ends with a pipeline drain: an
// infeasible-true-side verdict rewinds the state onto the false side and
// re-runs it, so by the time this returns the state's path condition is
// fully confirmed and the pipeline is empty.
func (e *Engine) runToCompletion(s *vm.State) {
	err := s.Run(e.clock, e.cfg.StepBudget, (*engineHooks)(e))
	if e.specPool != nil {
		for {
			e.drainSpec()
			if !s.SpecRewound() {
				break
			}
			s.ClearSpecRewound()
			err = s.Run(e.clock, e.cfg.StepBudget, (*engineHooks)(e))
		}
		if s.Status() == vm.StatusDead {
			// A deferred verdict may have killed the state after (or
			// regardless of) what Run returned; the resolution-time error
			// is what a synchronous run would have died of first.
			err = s.Err()
		}
	}
	if err == nil && s.Status() == vm.StatusDead {
		err = s.Err() // killed by a hook (e.g. out-of-range unicast)
	}
	if errors.Is(err, vm.ErrAssertFails) {
		// Already surfaced through OnViolation; the dead state simply
		// stops executing (the errored path terminates, as in KLEE).
		return
	}
	if err != nil {
		// The state died (runtime error). The run can continue — the
		// paper's model has no state death, so surface it as a violation
		// to make scenario bugs visible without stopping the analysis.
		e.violations = append(e.violations, &vm.Violation{
			Node:    s.NodeID(),
			Time:    e.clock,
			Msg:     fmt.Sprintf("state died: %v", err),
			StateID: s.ID(),
		})
		return
	}
	if s.Status() == vm.StatusIdle {
		e.scheduleHeap(s)
	}
}

// applyFailures injects the configured symbolic failures for a pending
// reception. Each failure forks the state via a fresh symbolic boolean —
// a local branch, so the mapper's OnBranch runs (for COB this forks the
// whole dscenario, exactly as in the paper's evaluation).
func (e *Engine) applyFailures(s *vm.State) {
	ev, ok := s.PeekEvent()
	if !ok || ev.Kind != vm.EventRecv {
		return
	}
	node := s.NodeID()
	f := e.cfg.Failures
	drop := f.DropFirst[node]
	dup := f.DuplicateFirst[node]
	reboot := f.RebootOnFirst[node]
	if !drop && !dup && !reboot {
		return
	}
	idx := s.NextRecvSeq()
	if idx != 0 {
		return // only the first reception is symbolic
	}
	if e.cfg.Replay != nil {
		// Concrete replay: follow the recorded failure decisions instead
		// of forking (variable value 0 selects the failure branch).
		if drop && e.cfg.Replay[fmt.Sprintf("drop_n%d_r%d", node, idx)] == 0 {
			s.DropEvent()
		}
		if dup && e.cfg.Replay[fmt.Sprintf("dup_n%d_r%d", node, idx)] == 0 {
			if _, ok := s.PeekEvent(); ok {
				s.DuplicateEvent()
			}
		}
		if reboot && e.cfg.Replay[fmt.Sprintf("reboot_n%d_r%d", node, idx)] == 0 {
			s.Reboot(e.bootFn, e.clock)
		}
		return
	}
	if drop {
		name := fmt.Sprintf("drop_n%d_r%d", node, idx)
		if val, pinned := e.pinDecision(s, name); pinned {
			if val == 0 {
				s.DropEvent()
			}
		} else {
			sib := s.ForkOnFreshBool(name) // s: no drop; sib: dropped
			e.onLocalBranch(s, sib)
			sib.DropEvent()
			e.adopt([]*vm.State{sib})
		}
	}
	if dup {
		name := fmt.Sprintf("dup_n%d_r%d", node, idx)
		if val, pinned := e.pinDecision(s, name); pinned {
			if val == 0 {
				if _, ok := s.PeekEvent(); ok {
					s.DuplicateEvent()
				}
			}
		} else {
			sib := s.ForkOnFreshBool(name) // s: normal; sib: duplicated
			e.onLocalBranch(s, sib)
			sib.DuplicateEvent()
			e.adopt([]*vm.State{sib})
		}
	}
	if reboot {
		name := fmt.Sprintf("reboot_n%d_r%d", node, idx)
		if val, pinned := e.pinDecision(s, name); pinned {
			if val == 0 {
				s.Reboot(e.bootFn, e.clock)
			}
		} else {
			sib := s.ForkOnFreshBool(name) // s: normal; sib: reboots
			e.onLocalBranch(s, sib)
			sib.Reboot(e.bootFn, e.clock)
			e.adopt([]*vm.State{sib})
		}
	}
}

// pinDecision checks whether a failure decision is pinned by Config.Pin;
// if so it adds the corresponding path constraint and returns the value.
func (e *Engine) pinDecision(s *vm.State, name string) (uint64, bool) {
	val, ok := e.cfg.Pin[name]
	if !ok {
		return 0, false
	}
	v := e.ctx.Exprs.Var(name, 1)
	if val == 0 {
		s.AddConstraint(e.ctx.Exprs.Not(v))
	} else {
		s.AddConstraint(v)
	}
	return val, true
}

// onLocalBranch notifies the mapper of a local fork and adopts whatever
// it created in response.
func (e *Engine) onLocalBranch(orig, sibling *vm.State) {
	extra := e.mapper.OnBranch(orig, sibling)
	e.adopt(extra)
	e.checkMapper()
}

func (e *Engine) checkMapper() {
	if !e.cfg.CheckInvariants || e.err != nil {
		return
	}
	if err := e.mapper.CheckInvariants(); err != nil {
		e.err = fmt.Errorf("sim: mapper invariant violated: %w", err)
	}
}

// handleSend expands a transmission to its unicast deliveries (broadcast =
// one unicast per neighbour, paper footnote 1) and performs the state
// mapping and delivery for each.
func (e *Engine) handleSend(s *vm.State, dst uint32, payload []*expr.Expr) {
	if dst == isa.BroadcastAddr {
		for _, nb := range e.cfg.Topo.Neighbors(s.NodeID()) {
			e.deliverUnicast(s, nb, payload)
		}
		return
	}
	if int(dst) >= e.cfg.Topo.K() {
		s.Kill(fmt.Errorf("sim: send to nonexistent node %d", dst))
		return
	}
	if !e.isNeighbor(s.NodeID(), int(dst)) {
		s.Kill(fmt.Errorf("sim: node %d cannot reach node %d directly", s.NodeID(), dst))
		return
	}
	e.deliverUnicast(s, int(dst), payload)
}

func (e *Engine) isNeighbor(from, to int) bool {
	for _, nb := range e.cfg.Topo.Neighbors(from) {
		if nb == to {
			return true
		}
	}
	return false
}

func (e *Engine) deliverUnicast(s *vm.State, dst int, payload []*expr.Expr) {
	if e.err != nil {
		return
	}
	del, err := e.mapper.MapSend(s, dst)
	if err != nil {
		e.err = fmt.Errorf("sim: state mapping: %w", err)
		return
	}
	e.adopt(del.Forked)
	e.checkMapper()
	payloadHash := payloadDigest(payload)
	// The sender's configuration fingerprint at transmission time makes
	// the packet globally unique (see vm.HistEntry) without introducing
	// run-order-dependent identifiers.
	senderFP := s.Fingerprint()
	senderPC := s.PathCond()
	seq := s.RecordSend(uint32(dst), e.clock, payloadHash)
	e.touch(del.Receivers...)
	for _, r := range del.Receivers {
		r.RecordRecv(uint32(s.NodeID()), e.clock, seq, payloadHash, senderFP)
		// Receiving implies the sender's context (see
		// vm.InheritConstraints); with symbolic payloads the receiver
		// will branch on the sender's variables.
		r.InheritConstraints(senderPC)
		if r.Status() == vm.StatusIdle {
			r.PushEvent(vm.Event{
				Time: e.clock + e.cfg.Latency,
				Kind: vm.EventRecv,
				Fn:   e.recvFn,
				Src:  uint32(s.NodeID()),
				Data: payload,
			})
			e.scheduleHeap(r)
		}
	}
}

func payloadDigest(payload []*expr.Expr) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range payload {
		h ^= w.Hash()
		h *= 1099511628211
	}
	return h
}

// stats is the one place a run's counters are read — by every sample, by
// every snapshot and by Finish: what the run carried when this engine took
// it over, plus what each layer has counted since.
func (e *Engine) stats() metrics.RunStats {
	live := e.own
	live.Solver = e.ctx.Solver.Stats()
	live.VM = e.ctx.Stats()
	var shared metrics.RunStats // parts the engine counts into as well
	if e.specPool != nil {
		shared.Spec = e.specPool.Stats()
	}
	return e.base.Add(live).Add(shared)
}

// sample records a metrics point, enforces the memory cap, and returns
// the footprint.
func (e *Engine) sample() MemTerms {
	terms := e.modelBytes()
	mem := terms.Total()
	if mem > e.peakMem {
		e.peakMem, e.peakTerms = mem, terms
	}
	st := e.stats()
	e.series.Add(metrics.Sample{
		Wall:          e.priorWall + time.Since(e.started),
		VirtualTime:   e.clock,
		States:        e.mapper.NumStates(),
		Groups:        e.mapper.NumGroups(),
		MemBytes:      mem,
		Instructions:  st.VM.Instructions,
		SolverQueries: st.Solver.Queries,
	})
	if c := e.cfg.Caps.MaxMemBytes; c > 0 && mem > c {
		e.abort(fmt.Sprintf("memory cap exceeded (%s > %s)",
			metrics.FormatBytes(mem), metrics.FormatBytes(c)))
	}
	return terms
}

// nodeImageBytes models the per-node program image (the paper's runs
// spend ~1 GB loading LLVM bytecode for 100 nodes before any state
// growth).
const nodeImageBytes = 64 << 10

// MemTerms splits a modeled RAM footprint into its two terms: growth in
// Pages is duplicated memory, growth in Overhead duplicated bookkeeping.
type MemTerms struct {
	Pages    int64 // node program images + every distinct COW page, once
	Overhead int64 // Σ vm.State.OverheadBytes: paid even if all pages are shared
}

// Total returns the footprint the two terms add up to.
func (m MemTerms) Total() int64 { return m.Pages + m.Overhead }

// modelBytes returns the modeled RAM footprint: every distinct COW page
// counted once plus per-state bookkeeping overhead. This mirrors what the
// paper's RSS curves measure — the marginal cost of duplicate states.
//
// Neither term is recounted. The page term is the context's live-page
// counter. The overhead term is a running total: only the states touched
// since the previous call are re-measured.
func (e *Engine) modelBytes() MemTerms {
	if e.overheadValid {
		for _, s := range e.touched {
			_, delta := s.SettleOverhead()
			e.overhead += int64(delta)
		}
	} else {
		e.overhead = 0
		for _, s := range e.states {
			bytes, _ := s.SettleOverhead()
			e.overhead += int64(bytes)
		}
		e.overheadValid = true
	}
	e.touched = e.touched[:0]
	return MemTerms{
		Pages:    int64(e.cfg.Topo.K())*nodeImageBytes + e.ctx.LivePages()*vm.PageBytes,
		Overhead: e.overhead,
	}
}

// touch marks states whose overhead may change before the next sample.
func (e *Engine) touch(states ...*vm.State) {
	if !e.overheadValid {
		return
	}
	e.touched = append(e.touched, states...)
	if len(e.touched) > len(e.states) { // a full sum is cheaper now; bounds the list with sampling off
		e.touched, e.overheadValid = e.touched[:0], false
	}
}

// engineHooks adapts *Engine to vm.Hooks without exporting the methods on
// Engine itself.
type engineHooks Engine

func (h *engineHooks) OnFork(orig, sibling *vm.State) {
	e := (*Engine)(h)
	e.onLocalBranch(orig, sibling)
	e.adopt([]*vm.State{sibling})
	e.runnable = append(e.runnable, sibling)
}

func (h *engineHooks) OnSend(s *vm.State, dst uint32, payload []*expr.Expr) {
	(*Engine)(h).handleSend(s, dst, payload)
}

func (h *engineHooks) OnViolation(s *vm.State, v *vm.Violation) {
	e := (*Engine)(h)
	e.violations = append(e.violations, v)
	e.solveWitness(s, v)
}
