// Package merge implements ITE-based state merging, the frontier-reduction
// subsystem: sibling states of one node that differ at a bounded number of
// locations are fused into a single merged representative ("rep") whose
// differing values become hash-consed ite(Δ, v1, v2) expressions and whose
// path condition disjoins the members' path suffixes, following the
// representation of "State Merging with Quantifiers in Symbolic Execution"
// and the Cloud9/KLEE query-cost lineage for the merge-vs-fork decision.
//
// The design is execute-through with exact order: a rep executes the
// members' shared events once, but only while every control decision is
// member-uniform — each member's substitution of the condition must fold
// to the same constant. The first disagreement, genuinely symbolic
// condition, or observable instruction (send, assert, symbolic address)
// splits the rep back into its exact members, reconstructed by
// substituting each member's side through the rep's machine. Because the
// expression DAG is hash-consed and substitution rebuilds through the same
// smart constructors, a reconstructed member is pointer-identical to what
// its own unmerged execution would have produced: fingerprints, solver
// queries, violations, and generated test cases are bit-for-bit those of a
// merge-off run. Reps therefore never fork, never add constraints, and
// never touch the solver; merging changes how many live machines exist,
// not what the exploration observes.
//
// The scheduler-facing ordering guarantee (a rep must not execute ahead of
// an unrelated state that an unmerged run would have interleaved between
// its members) is enforced by the engine's pop-time gate, not here; this
// package owns which states fuse, when reps split, and the bookkeeping
// that makes the split exact.
package merge

import (
	"fmt"
	"sort"

	"sde/internal/expr"
	"sde/internal/metrics"
	"sde/internal/vm"
)

// Driver is the scheduling interface the engine exposes to the manager so
// split members re-enter exploration exactly where the rep stood.
type Driver interface {
	// EnqueueRunnable hands over a mid-event member (StatusRunning) for
	// immediate execution on the engine's LIFO run stack.
	EnqueueRunnable(s *vm.State)
	// ScheduleIdle (re-)schedules a quiescent state on the event heap; a
	// no-op for states with no pending events.
	ScheduleIdle(s *vm.State)
}

// Config parameterizes the manager.
type Config struct {
	// MaxSites bounds the divergence-site count of a candidate pair
	// (default 8). Pairs differing at more locations never merge.
	MaxSites int
	// MaxMembers bounds how many members one rep may accumulate through
	// chained merges (default 16).
	MaxMembers int
	// Cost decides merge vs. keep-forked for structurally mergeable
	// candidates. Defaults to DefaultCostModel.
	Cost CostModel
	// SliceStats, when non-nil, reports the solver's independence-slicing
	// counters (sliced queries, total factors) so the cost model can
	// estimate how much entangling member values through shared ite nodes
	// would hurt future queries.
	SliceStats func() (queries, factors uint64)
}

// SubPair is one substitution entry (merge-introduced ite node → this
// member's arm) in its deterministic creation order, the form snapshots
// serialize.
type SubPair struct {
	Key, Val *expr.Expr
}

// member is one fused-away state: its frozen shell, the substitution that
// reconstructs its values from the rep's, and its share of the
// instructions the rep executes on its behalf.
type member struct {
	st *vm.State
	// sub maps every merge-introduced ite reachable from the rep's values
	// to this member's arm; subOrder lists the entries in creation order
	// (map iteration is not deterministic, snapshots need an order).
	sub      map[*expr.Expr]*expr.Expr
	subOrder []SubPair
	// memo caches substitution results for the rep's lifetime — sub never
	// changes, so rewrites of shared subtrees are paid once.
	memo map[*expr.Expr]*expr.Expr
	// stepsBase is the rep's step counter when this member joined;
	// carried accumulates shared steps inherited from earlier rep
	// generations (re-merges). The member's share of merged execution is
	// carried + (rep.steps − stepsBase).
	stepsBase uint64
	carried   uint64
}

type repRec struct {
	st      *vm.State
	node    int
	members []*member // ascending member id; members[0].st.ID() == st.ID()
	maxID   uint64
}

// Manager owns the merged frontier: which reps exist, who their members
// are, and the verdict/split machinery. It implements vm.MergeHooks.
type Manager struct {
	eb    *expr.Builder
	drv   Driver
	cfg   Config
	reps  map[*vm.State]*repRec // by rep state
	byMem map[*vm.State]*repRec // frozen member → its rep
	stats metrics.MergeStats    // all but ScansSkipped, which is the engine's
}

// NewManager returns a manager wired to the given builder and driver.
func NewManager(eb *expr.Builder, drv Driver, cfg Config) *Manager {
	if cfg.MaxSites <= 0 {
		cfg.MaxSites = 8
	}
	if cfg.MaxMembers <= 0 {
		cfg.MaxMembers = 16
	}
	if cfg.Cost == nil {
		cfg.Cost = DefaultCostModel{}
	}
	return &Manager{
		eb:    eb,
		drv:   drv,
		cfg:   cfg,
		reps:  make(map[*vm.State]*repRec),
		byMem: make(map[*vm.State]*repRec),
	}
}

// Stats returns the cumulative counters: the manager's share of the run's
// Merge part.
func (m *Manager) Stats() metrics.MergeStats { return m.stats }

// MergedAway returns how many states are currently hidden inside reps
// (Σ members − reps).
func (m *Manager) MergedAway() int {
	n := 0
	for _, r := range m.reps {
		n += len(r.members) - 1
	}
	return n
}

// HasReps reports whether any merged rep is live.
func (m *Manager) HasReps() bool { return len(m.reps) > 0 }

// IsRep reports whether s is a live merged representative.
func (m *Manager) IsRep(s *vm.State) bool { _, ok := m.reps[s]; return ok }

// IsFrozen reports whether s is a fused-away member shell.
func (m *Manager) IsFrozen(s *vm.State) bool { _, ok := m.byMem[s]; return ok }

// RepOf returns the rep s is frozen into, or nil.
func (m *Manager) RepOf(s *vm.State) *vm.State {
	if r, ok := m.byMem[s]; ok {
		return r.st
	}
	return nil
}

// Span returns the member-id span [lo, hi] of rep s. The engine's pop-time
// gate refuses execute-through while any unrelated state with an id
// strictly inside the span is runnable at the same timestamp — that state
// would have run between the members in the unmerged interleaving.
func (m *Manager) Span(s *vm.State) (lo, hi uint64, ok bool) {
	r, found := m.reps[s]
	if !found {
		return 0, 0, false
	}
	return r.st.ID(), r.maxID, true
}

// ForEachRep calls f for every live rep in ascending rep-id order.
func (m *Manager) ForEachRep(f func(s *vm.State)) {
	for _, r := range m.sortedReps() {
		f(r.st)
	}
}

func (m *Manager) sortedReps() []*repRec {
	rs := make([]*repRec, 0, len(m.reps))
	for _, r := range m.reps {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].st.ID() < rs[j].st.ID() })
	return rs
}

// Scan takes the quiescent states of one node that just changed (idle or
// halted, frozen shells excluded, live reps included) and greedily fuses
// structurally mergeable neighbours the cost model accepts. Newly formed
// reps are handed to the driver for scheduling; fused-away members stay in
// the engine's state table as frozen shells.
func (m *Manager) Scan(cands []*vm.State) {
	if len(cands) < 2 {
		return
	}
	buckets := make(map[uint64][]*vm.State)
	for _, s := range cands {
		h := s.MergeClassHash()
		buckets[h] = append(buckets[h], s)
	}
	// Deterministic bucket order: by smallest state id within the bucket.
	keys := make([]uint64, 0, len(buckets))
	for h, b := range buckets {
		sort.Slice(b, func(i, j int) bool { return b[i].ID() < b[j].ID() })
		keys = append(keys, h)
	}
	sort.Slice(keys, func(i, j int) bool {
		return buckets[keys[i]][0].ID() < buckets[keys[j]][0].ID()
	})
	for _, h := range keys {
		b := buckets[h]
		cur := b[0]
		for _, next := range b[1:] {
			if merged, ok := m.tryFuse(cur, next); ok {
				cur = merged
			} else {
				cur = next
			}
		}
	}
}

// tryFuse attempts to fuse a (smaller id; possibly already a rep) with b
// (possibly a rep). On success it returns the new rep.
func (m *Manager) tryFuse(a, b *vm.State) (*vm.State, bool) {
	membersA, membersB := 1, 1
	if r, ok := m.reps[a]; ok {
		membersA = len(r.members)
	}
	if r, ok := m.reps[b]; ok {
		membersB = len(r.members)
	}
	if membersA+membersB > m.cfg.MaxMembers {
		return nil, false
	}
	diff, ok := vm.DiffMergeable(a, b, m.cfg.MaxSites)
	if !ok {
		return nil, false
	}
	// Path-condition split: past the longest common (pointer-identical)
	// prefix, each side's suffix conjunction is its delta. A side with an
	// empty suffix has a path condition subsuming the other's — no delta
	// could tell the members apart at split time, so such pairs never
	// merge.
	pcA, pcB := a.PathCond(), b.PathCond()
	n := 0
	for n < len(pcA) && n < len(pcB) && pcA[n] == pcB[n] {
		n++
	}
	if n == len(pcA) || n == len(pcB) {
		return nil, false
	}
	deltaA := m.conj(pcA[n:])
	deltaB := m.conj(pcB[n:])
	if deltaA.IsConst() || deltaB.IsConst() {
		return nil, false
	}
	m.stats.Candidates++
	cand := m.buildCandidate(a.NodeID(), diff, deltaA, deltaB, membersA+membersB)
	if !m.cfg.Cost.ShouldMerge(cand) {
		m.stats.Rejects++
		return nil, false
	}

	rep, subA, subB := vm.FuseStates(a, b, deltaA, diff)
	orderA := orderedPairs(m.eb, deltaA, diff, subA)
	orderB := orderedPairs(m.eb, deltaA, diff, subB)
	repPC := append([]*expr.Expr(nil), pcA[:n]...)
	if or := m.eb.Or(deltaA, deltaB); !or.IsTrue() {
		repPC = append(repPC, or)
	}
	rep.MergeSetPathCond(repPC)

	rec := &repRec{st: rep, node: a.NodeID()}
	rec.members = append(rec.members, m.absorb(a, subA, orderA, rep)...)
	rec.members = append(rec.members, m.absorb(b, subB, orderB, rep)...)
	rec.maxID = rec.members[len(rec.members)-1].st.ID()
	m.reps[rep] = rec
	for _, mb := range rec.members {
		m.byMem[mb.st] = rec
	}
	m.stats.Merges++
	if len(rec.members) > m.stats.MaxMembers {
		m.stats.MaxMembers = len(rec.members)
	}
	if away := m.MergedAway(); away > m.stats.PeakMerged {
		m.stats.PeakMerged = away
	}
	m.drv.ScheduleIdle(rep)
	return rep, true
}

// absorb turns one fusion side into member records of the new rep. A plain
// state is frozen; an old rep transfers its members with their
// substitutions composed (new-level entries first — substitution rewrites
// mapped values, so old-level entries resolve inside them) and is then
// discarded.
func (m *Manager) absorb(side *vm.State, sideSub map[*expr.Expr]*expr.Expr, sideOrder []SubPair, rep *vm.State) []*member {
	old, wasRep := m.reps[side]
	if !wasRep {
		side.MergeFreeze()
		return []*member{{
			st:        side,
			sub:       sideSub,
			subOrder:  sideOrder,
			memo:      make(map[*expr.Expr]*expr.Expr),
			stepsBase: rep.Steps(),
		}}
	}
	out := make([]*member, 0, len(old.members))
	for _, om := range old.members {
		sub := make(map[*expr.Expr]*expr.Expr, len(sideSub)+len(om.sub))
		order := make([]SubPair, 0, len(sideSub)+len(om.sub))
		for _, p := range sideOrder {
			sub[p.Key] = p.Val
			order = append(order, p)
		}
		for _, p := range om.subOrder {
			if _, dup := sub[p.Key]; dup {
				// A structurally identical ite forces identical arms; the
				// new-level entry already resolves it consistently.
				continue
			}
			sub[p.Key] = p.Val
			order = append(order, p)
		}
		out = append(out, &member{
			st:        om.st,
			sub:       sub,
			subOrder:  order,
			memo:      make(map[*expr.Expr]*expr.Expr),
			stepsBase: rep.Steps(),
			carried:   om.carried + side.Steps() - om.stepsBase,
		})
		delete(m.byMem, om.st)
	}
	delete(m.reps, side)
	side.MergeDiscard()
	return out
}

// orderedPairs lists one side's substitution entries in divergence-site
// order (map iteration is not deterministic; snapshots and composed
// re-merges need a stable order). The ite keys are recomputed through the
// hash-consed builder, so they are pointer-identical to FuseStates'.
func orderedPairs(eb *expr.Builder, delta *expr.Expr, d *vm.MergeDiff, sub map[*expr.Expr]*expr.Expr) []SubPair {
	pairs := make([]SubPair, 0, len(sub))
	seen := make(map[*expr.Expr]bool, len(sub))
	for _, site := range d.Sites {
		ite := eb.Ite(delta, site.A, site.B)
		if v, ok := sub[ite]; ok && !seen[ite] {
			seen[ite] = true
			pairs = append(pairs, SubPair{Key: ite, Val: v})
		}
	}
	return pairs
}

func (m *Manager) conj(cs []*expr.Expr) *expr.Expr {
	d := cs[0]
	for _, c := range cs[1:] {
		d = m.eb.And(d, c)
	}
	return d
}

// extraSteps is the member's share of instructions the rep executed on its
// behalf since it joined.
func (r *repRec) extraSteps(mb *member) uint64 {
	return mb.carried + r.st.Steps() - mb.stepsBase
}

// --- splitting ---------------------------------------------------------------

// SplitIdle dissolves a quiescent (idle or halted) rep back into its exact
// members and reschedules them. Used by the pop-time gate, by mapping
// points that must see the true frontier (mapper forks, deliveries), and
// at run end.
func (m *Manager) SplitIdle(s *vm.State) {
	r, ok := m.reps[s]
	if !ok {
		return
	}
	m.dissolve(r, 0)
	for _, mb := range r.members {
		m.drv.ScheduleIdle(mb.st)
	}
}

// SplitAllIdle dissolves every rep (ascending rep id, so reconstruction
// order is deterministic).
func (m *Manager) SplitAllIdle() {
	for _, r := range m.sortedReps() {
		m.SplitIdle(r.st)
	}
}

// SplitNodeIdle dissolves every rep of one node — used before deliveries
// under mapping algorithms that fork only the destination's states.
func (m *Manager) SplitNodeIdle(node int) {
	for _, r := range m.sortedReps() {
		if r.node == node {
			m.SplitIdle(r.st)
		}
	}
}

// SplitDead dissolves a rep that died wholesale (step budget, pc range):
// every member adopts the dead machine and the rep's error. Members are
// returned in ascending id order so the engine can report their deaths
// exactly as an unmerged run would. ok is false when s is not a rep.
func (m *Manager) SplitDead(s *vm.State) (members []*vm.State, ok bool) {
	r, found := m.reps[s]
	if !found {
		return nil, false
	}
	m.dissolve(r, 0)
	out := make([]*vm.State, len(r.members))
	for i, mb := range r.members {
		out[i] = mb.st
	}
	return out, true
}

// splitMid dissolves a rep mid-event: members come back StatusRunning at
// the rep's current instruction and are enqueued on the engine's LIFO run
// stack in reverse id order, so the smallest id executes first and each
// member's own forks drain within its turn — the unmerged activation
// order. countedCurrent is true when the rep already counted the current
// instruction (verdict intercepts run after the step counter; the
// pre-instruction barrier runs before it) and the members will re-execute
// it themselves.
func (m *Manager) splitMid(r *repRec, countedCurrent bool) {
	adjust := uint64(0)
	if countedCurrent {
		adjust = 1
	}
	m.dissolve(r, adjust)
	for i := len(r.members) - 1; i >= 0; i-- {
		m.drv.EnqueueRunnable(r.members[i].st)
	}
}

// dissolve reconstructs every member from the rep and unregisters the rep.
func (m *Manager) dissolve(r *repRec, adjust uint64) {
	for _, mb := range r.members {
		mb.st.AdoptMergedMachine(r.st, mb.sub, mb.memo, r.extraSteps(mb)-adjust)
		delete(m.byMem, mb.st)
	}
	delete(m.reps, r.st)
	r.st.MergeDiscard()
	m.stats.Splits++
}

// --- vm.MergeHooks -----------------------------------------------------------

// MergedBranch resolves a conditional branch on a rep: the condition is
// substituted per member, and only all-true or all-false lets the rep
// continue. Disagreement splits mid-event.
func (m *Manager) MergedBranch(s *vm.State, cond *expr.Expr) vm.MergeVerdict {
	r := m.reps[s]
	if r == nil {
		panic(fmt.Sprintf("merge: MergedBranch on unknown rep %d", s.ID()))
	}
	allTrue, allFalse := true, true
	for _, mb := range r.members {
		c := m.eb.Substitute(cond, mb.sub, mb.memo)
		switch {
		case c.IsTrue():
			allFalse = false
		case c.IsFalse():
			allTrue = false
		default:
			allTrue, allFalse = false, false
		}
		if !allTrue && !allFalse {
			break
		}
	}
	switch {
	case allTrue:
		return vm.MergeFoldTrue
	case allFalse:
		return vm.MergeFoldFalse
	}
	m.splitMid(r, true)
	return vm.MergeSplit
}

// MergedCheck resolves an assume/assert condition: only uniformly
// structurally-true conditions let the rep continue.
func (m *Manager) MergedCheck(s *vm.State, cond *expr.Expr) vm.MergeVerdict {
	r := m.reps[s]
	if r == nil {
		panic(fmt.Sprintf("merge: MergedCheck on unknown rep %d", s.ID()))
	}
	for _, mb := range r.members {
		if !m.eb.Substitute(cond, mb.sub, mb.memo).IsTrue() {
			m.splitMid(r, true)
			return vm.MergeSplit
		}
	}
	return vm.MergeFoldTrue
}

// MergedBarrier splits a rep before an instruction it must never execute.
func (m *Manager) MergedBarrier(s *vm.State) {
	r := m.reps[s]
	if r == nil {
		panic(fmt.Sprintf("merge: MergedBarrier on unknown rep %d", s.ID()))
	}
	m.splitMid(r, false)
}
