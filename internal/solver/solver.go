package solver

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"sde/internal/expr"
	"sde/internal/metrics"
)

// ErrBudget is returned when a query exceeds the configured conflict budget
// before a definite answer is found.
var ErrBudget = errors.New("solver: conflict budget exhausted")

// Stats counts solver activity since construction: the Solver part of a
// run's metrics.RunStats, declared there.
type Stats = metrics.SolverStats

type cacheEntry struct {
	hashes []uint64 // sorted constraint hashes, to guard against collisions
	sat    bool
}

// Options tunes a Solver. Every feasibility query takes one fixed path —
// constant folding, the literal fast path, the exact cache, the shared
// cache (when set), the model pool, partitioning into independent
// components, and the slot's persistent CDCL instance — whichever slot
// asks it, and Witness ignores every field but MaxConflicts.
type Options struct {
	// MaxConflicts bounds a single CDCL run; zero means unlimited.
	MaxConflicts int64
	// SharedCache, when non-nil, is consulted after the private query
	// cache and populated with every verdict this solver computes. The
	// same cache may back any number of solvers concurrently, even ones
	// whose expressions come from different expr.Builders: query keys
	// are structural constraint hashes, comparable across builders.
	SharedCache *SharedCache

	// Deprecated: ignored. The query optimizer is deleted; the field
	// stays, with the internal/qopt stub whose nil *Optimizer it is
	// given, only because bench/layers.go compiles against both.
	Optimizer any
}

// cacheStripes is the number of exact-cache segments. Striping lets
// speculation workers and the main thread decide disjoint queries without
// contending on one map lock.
const cacheStripes = 64

type cacheStripe struct {
	mu sync.Mutex
	m  map[uint64]cacheEntry
}

// solverSlot is one persistent incremental solving context plus the mutex
// that serialises it. The Solver owns slot 0 (queries from the interpreter
// thread); the speculation pool allocates one extra slot per worker so
// feasibility queries never share a CDCL instance — only the read-mostly
// caches — across goroutines.
type solverSlot struct {
	mu sync.Mutex
	ic *incContext
}

// Solver answers satisfiability queries over sets of 1-bit constraint
// expressions. It is safe for concurrent use: the exact cache is striped
// and every incremental CDCL instance lives in its own slot — there is no
// global mutex on the query path. All constraint expressions passed to one
// Solver must come from a single expr.Builder.
type Solver struct {
	opts Options

	cache [cacheStripes]cacheStripe

	poolMu sync.Mutex
	pool   []poolModel // recent satisfying models, most recent last

	statsMu sync.Mutex
	stats   Stats

	// slot0 is the main incremental context: every query that does not
	// name a worker slot (the interpreter thread's) lands here.
	slot0 solverSlot

	// witnesses memoises the component models of Witness (witness.go).
	witnesses witnessMemo
}

// New returns a Solver with all optimisations enabled.
func New() *Solver { return NewWithOptions(Options{}) }

// NewWithOptions returns a Solver with the given tuning. Options is the
// single source of truth for the conflict budget (Options.MaxConflicts).
func NewWithOptions(opts Options) *Solver {
	s := &Solver{opts: opts}
	for i := range s.cache {
		s.cache[i].m = make(map[uint64]cacheEntry, 8)
	}
	s.witnesses.m = make(map[uint64]*witnessEntry)
	return s
}

// NewWorkerSlot returns a fresh incremental solving slot with its own
// CDCL instance and blast context. The speculation pool gives one to each
// worker, so concurrent feasibility queries share only the caches.
func (s *Solver) NewWorkerSlot() *SolverSlot { return &SolverSlot{} }

// SolverSlot is the exported handle for a worker-owned incremental
// context; see Solver.NewWorkerSlot.
type SolverSlot struct {
	slot solverSlot
}

// FeasibleOn decides prefix ∧ extra on the given worker slot. This is the
// speculation-worker entry point: the query takes the same pipeline as
// Feasible and shares the Solver's caches, but never its slot-0 CDCL
// instance, so it is safe to call concurrently with every other method.
func (s *Solver) FeasibleOn(slot *SolverSlot, prefix []*expr.Expr, extra *expr.Expr) (bool, error) {
	return s.checkQuery(&slot.slot, prefix, extra)
}

// Stats returns a snapshot of the activity counters.
func (s *Solver) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// Feasible reports whether the conjunction of the constraints is
// satisfiable. Every constraint must be a 1-bit expression.
// A concrete satisfying assignment comes from Witness.
func (s *Solver) Feasible(constraints []*expr.Expr) (bool, error) {
	return s.checkQuery(&s.slot0, constraints, nil)
}

// FeasibleWith is Feasible for prefix-extension queries — the shape every
// branch decision takes: decide prefix ∧ extra without the caller
// materialising the combined slice. A nil extra is valid.
//
// The first parameter is ignored; callers pass nil. It, Session and
// NewSession are a stub of the deleted per-state literal cache, kept only
// because bench/layers.go — which only a benchmark PR may edit — compiles
// against sv.NewSession() and FeasibleWith(sess, …). Once that calls
// Feasible, delete all three.
func (s *Solver) FeasibleWith(_ *Session, prefix []*expr.Expr, extra *expr.Expr) (bool, error) {
	return s.checkQuery(&s.slot0, prefix, extra)
}

// Session is the stub FeasibleWith describes; NewSession returns nil.
type Session struct{}

func (s *Solver) NewSession() *Session { return nil }

func (s *Solver) bumpStat(f func(*Stats)) {
	s.statsMu.Lock()
	f(&s.stats)
	s.statsMu.Unlock()
}

func (s *Solver) stripe(key uint64) *cacheStripe {
	return &s.cache[key&(cacheStripes-1)]
}

func (s *Solver) checkQuery(slot *solverSlot, prefix []*expr.Expr, extra *expr.Expr) (bool, error) {
	s.bumpStat(func(st *Stats) { st.Queries++ })

	// Constant-fold the constraint set.
	n := len(prefix)
	if extra != nil {
		n++
	}
	active := make([]*expr.Expr, 0, n)
	var foldErr error
	// fold returns true when the query is already decided: either a
	// malformed constraint (foldErr set) or a constant-false one (the
	// whole conjunction is UNSAT).
	fold := func(c *expr.Expr) bool {
		if c.Width() != 1 {
			foldErr = fmt.Errorf("solver: constraint has width %d, want 1", c.Width())
			return true
		}
		if c.IsTrue() {
			return false
		}
		if c.IsFalse() {
			return true
		}
		active = append(active, c)
		return false
	}
	for _, c := range prefix {
		if fold(c) {
			return false, foldErr
		}
	}
	if extra != nil && fold(extra) {
		return false, foldErr
	}
	if len(active) == 0 {
		return true, nil
	}

	// Fast path: a pure conjunction of boolean literals (v / ¬v) is
	// satisfiable iff no variable occurs with both polarities. This covers
	// the failure-model decision variables that dominate sensornet
	// scenarios without touching the SAT core.
	if sat, ok := literalVerdict(active); ok {
		s.bumpStat(func(st *Stats) { st.FastPath++ })
		return sat, nil
	}

	key, hashes := queryKey(active)

	str := s.stripe(key)
	str.mu.Lock()
	if ent, ok := str.m[key]; ok && slices.Equal(ent.hashes, hashes) {
		str.mu.Unlock()
		s.bumpStat(func(st *Stats) { st.CacheHits++ })
		return ent.sat, nil
	}
	str.mu.Unlock()

	// Cross-solver shared cache: another shard of a parallel run may
	// already have decided this structural query.
	if sc := s.opts.SharedCache; sc != nil {
		if sat, ok := sc.lookup(key, hashes); ok {
			s.bumpStat(func(st *Stats) { st.SharedHits++ })
			s.remember(key, hashes, sat)
			return sat, nil
		}
	}

	// Counterexample reuse: a recent model satisfying all constraints
	// proves satisfiability without a SAT call.
	if s.poolAnswers(active) {
		s.bumpStat(func(st *Stats) { st.PoolHits++ })
		s.record(key, hashes, true)
		return true, nil
	}

	// Split into independent components when possible: each component is
	// decided through the full pipeline and its result cached separately;
	// the whole query's verdict is cached too, so an identical repeat is
	// one exact-cache hit rather than a pool scan and a walk of its parts.
	if sat, handled, err := s.checkPartitioned(slot, active); handled {
		if err != nil {
			return false, err
		}
		s.record(key, hashes, sat)
		return sat, nil
	}

	sat, model, err := s.solveOnSlot(slot, active)
	if err != nil {
		// Budget-exhausted verdicts are unknowns: they must never reach
		// any cache (an unknown stored as UNSAT would be unsound).
		return false, err
	}
	s.bumpStat(func(st *Stats) {
		st.SATCalls++
		st.IncSolves++
	})
	if sat {
		s.poolMu.Lock()
		s.pool = append(s.pool, model)
		if len(s.pool) > poolCap {
			s.pool = s.pool[len(s.pool)-poolCap:]
		}
		s.poolMu.Unlock()
	}
	s.record(key, hashes, sat)
	return sat, nil
}

// poolCap is how many recent models the counterexample pool keeps.
const poolCap = 16

// poolModel is one satisfying assignment in the counterexample pool: the
// variables of the query it satisfied, by ascending id, with their values.
type poolModel []boundVar

type boundVar struct {
	id  uint32
	val uint64
}

// evaluators recycles the expr.Evaluators of poolAnswers and
// literalVerdict. A query takes one for the length of a scan, so the
// interpreter thread, speculation workers and witness goroutines never
// share one.
var evaluators = sync.Pool{New: func() any { return new(expr.Evaluator) }}

// poolAnswers reports whether some model in the pool, most recent first,
// satisfies every constraint of active. Each model is scattered into a
// pooled evaluator's variable array; the model's constraints share that
// evaluator's node-id memo, and Reset forgets both between models.
func (s *Solver) poolAnswers(active []*expr.Expr) bool {
	var buf [poolCap]poolModel
	s.poolMu.Lock()
	pool := buf[:copy(buf[:], s.pool)]
	s.poolMu.Unlock()
	if len(pool) == 0 {
		return false
	}
	ev := evaluators.Get().(*expr.Evaluator)
	defer evaluators.Put(ev)
	for i := len(pool) - 1; i >= 0; i-- {
		ev.Reset()
		for _, b := range pool[i] {
			ev.Bind(b.id, b.val)
		}
		holds := true
		for _, c := range active {
			if ev.Eval(c) == 0 {
				holds = false
				break
			}
		}
		if holds {
			return true
		}
	}
	return false
}

// remember records a decided query in the private exact cache. The caller
// must never pass a budget-exhausted (ErrBudget) verdict.
func (s *Solver) remember(key uint64, hashes []uint64, sat bool) {
	str := s.stripe(key)
	str.mu.Lock()
	str.m[key] = cacheEntry{hashes: hashes, sat: sat}
	str.mu.Unlock()
}

// record is remember plus the shared cache: where a verdict this solver
// computed goes. The same ErrBudget rule applies.
func (s *Solver) record(key uint64, hashes []uint64, sat bool) {
	s.remember(key, hashes, sat)
	if sc := s.opts.SharedCache; sc != nil {
		sc.store(key, hashes, sat)
	}
}

// scratchBlasters recycles the instance + blaster pair of solveSAT. A pair
// in the pool is always in the state newBlaster(newSatSolver()) produces
// (blaster.reset), so which pair a query gets — a new one or one that has
// decided any number of other queries, on any goroutine — cannot be told
// from its search or its model; what a recycled pair brings is the memory
// its predecessors already allocated.
var scratchBlasters = sync.Pool{
	New: func() any { return newBlaster(newSatSolver()) },
}

// solveSAT runs a full bit-blast + CDCL query on a throwaway instance: the
// from-scratch solve behind every Witness component.
func (s *Solver) solveSAT(constraints []*expr.Expr) (bool, expr.Env, error) {
	bl := scratchBlasters.Get().(*blaster)
	bl.sat.maxConfl = s.opts.MaxConflicts
	sat, model, err := bl.decide(constraints)
	s.bumpStat(func(st *Stats) {
		st.Conflicts += bl.sat.conflicts
		st.Decisions += bl.sat.decisions
		st.Gates += bl.gates
	})
	// The pair's counters are in Stats and decide has read the model off
	// the assignment into a map built for the caller: nothing returned
	// aliases the pair's memory, so it is wiped and handed to the next query.
	bl.reset()
	scratchBlasters.Put(bl)
	return sat, model, err
}

// decide asserts every constraint on b, which is in its initial state, and
// solves: the verdict, a model of the constraints' variables when SAT, and
// ErrBudget when the instance's conflict budget ran out.
func (b *blaster) decide(constraints []*expr.Expr) (bool, expr.Env, error) {
	for _, c := range constraints {
		if !b.assertTrue(b.encode(c)[0]) {
			return false, nil, nil
		}
	}
	switch b.sat.solve() {
	case valFalse:
		return false, nil, nil
	case valUnassigned:
		return false, nil, ErrBudget
	}
	return true, b.env(b.readModel(constraints)), nil
}

// literalVerdict decides a conjunction of boolean literals (v / ¬v): it
// is satisfiable iff no variable occurs with both polarities. ok is false
// when some constraint has another shape. Constraints are taken in order
// and the first conflict decides, so a set with a non-literal after a
// conflicting pair is still refuted here. Polarities are bound by variable
// id on a pooled evaluator: linear, and no map.
func literalVerdict(constraints []*expr.Expr) (sat, ok bool) {
	// A set whose first constraint is not a literal leaves before it takes
	// an evaluator.
	if len(constraints) > 0 {
		if _, _, lit := literal(constraints[0]); !lit {
			return false, false
		}
	}
	ev := evaluators.Get().(*expr.Evaluator)
	defer evaluators.Put(ev)
	ev.Reset()
	for _, c := range constraints {
		v, pol, lit := literal(c)
		if !lit {
			return false, false
		}
		if prev, seen := ev.Bound(v.VarID()); seen && prev != pol {
			return false, true // v ∧ ¬v
		}
		ev.Bind(v.VarID(), pol)
	}
	return true, true
}

// literal reports whether c is a boolean literal, and if so its variable
// and the value the literal forces on it.
func literal(c *expr.Expr) (v *expr.Expr, pol uint64, ok bool) {
	pol = 1
	if c.Kind() == expr.KindNot {
		pol = 0
		c = c.Arg(0)
	}
	if c.Kind() != expr.KindVar || c.Width() != 1 {
		return nil, 0, false
	}
	return c, pol, true
}

// literalModel is the model of a satisfiable conjunction of literals
// (literalVerdict): each variable set to its one polarity.
func literalModel(constraints []*expr.Expr) expr.Env {
	model := make(expr.Env, len(constraints))
	for _, c := range constraints {
		v, pol, _ := literal(c)
		model[v.VarName()] = pol
	}
	return model
}

func queryKey(constraints []*expr.Expr) (uint64, []uint64) {
	hashes := make([]uint64, len(constraints))
	for i, c := range constraints {
		hashes[i] = c.Hash()
	}
	slices.Sort(hashes)
	// Deduplicate: the same constraint asserted twice is one constraint.
	uniq := hashes[:0]
	for i, h := range hashes {
		if i == 0 || h != hashes[i-1] {
			uniq = append(uniq, h)
		}
	}
	hashes = uniq
	key := uint64(14695981039346656037)
	for _, h := range hashes {
		key = hashCombine64(key, h)
	}
	return key, hashes
}

func hashCombine64(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	h ^= h >> 29
	return h
}
