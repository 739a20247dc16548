// Package solver decides satisfiability of bitvector constraint sets from
// package expr and produces concrete models (test cases).
//
// The pipeline is the classical one used by symbolic executors: expressions
// are bit-blasted to CNF (Tseitin encoding, ripple-carry adders, shift-add
// multipliers, restoring dividers, barrel shifters) and handed to an
// embedded CDCL SAT solver with two-literal watching, first-UIP clause
// learning, VSIDS branching, phase saving, and Luby restarts. A query cache
// and a counterexample (model reuse) cache sit in front, mirroring KLEE's
// solver stack at a small scale.
//
// Memory layout of the SAT core. Building and indexing an instance's state,
// not searching it, used to be most of what a solve cost, so the instance
// keeps everything in flat slices it can recycle:
// every per-variable attribute (assignment, level, reason, phase, activity,
// the VSIDS heap's position index) is a dense slice indexed by variable;
// every clause's literals live in one arena ([]Lit) addressed by {off, n}
// records, so adding a clause is two appends and never a heap object of its
// own; the two watch lists of a variable keep their capacity when the
// instance is reset. reset returns an instance to exactly the state
// newSatSolver produces — every slice at length zero with its capacity kept,
// phases false, activities 0, varInc 1, heap empty, counters 0 — so a
// recycled instance makes the same propagations, decisions and conflicts as
// a fresh one and returns the same assignment: nothing in the search reads
// an address, a capacity or a map order. The throwaway instance of every
// witness component (Solver.solveSAT) is such a recycled one.
//
// Cones. A persistent instance (incremental.go) holds every circuit its
// slot has ever encoded, while one query's assumptions reach a fraction of
// it. Every gate variable records its 2–3 input variables (fanin) and every
// problem clause the gate it defines (gateOf), so restrictTo can stamp the
// fan-in cone of a solve's assumptions: the decision heap then holds only
// cone variables, and above level 0 propagate leaves the watchers of
// out-of-cone gate clauses alone. An instance that never calls restrictTo —
// every throwaway one — has epoch 0, every variable stamped 0, and searches
// exactly as if cones did not exist.
package solver

// Lit is a CNF literal: +v asserts variable v, -v asserts its negation.
// Variables are numbered starting at 1.
type Lit int32

// Neg returns the negated literal.
func (l Lit) Neg() Lit { return -l }

func (l Lit) v() int32 {
	if l < 0 {
		return int32(-l)
	}
	return int32(l)
}

// index maps a literal to a dense slice index (2v for +v, 2v+1 for -v).
func (l Lit) index() int32 {
	if l < 0 {
		return -int32(l)*2 + 1
	}
	return int32(l) * 2
}

const (
	valUnassigned int8 = 0
	valTrue       int8 = 1
	valFalse      int8 = -1
)

// clause locates one clause's literals in satSolver.lits: lits[off:off+n].
// Literal order inside that window is the clause's own (the two watched
// literals first) and is permuted in place by propagate.
//
// off is a uint32: one instance's arena is bounded at 2^32 literals (16 GiB
// of Lit), as int32 clause indices (watcher.clauseIdx, reason) bound its
// clauses at 2^31. Neither bound is checked at run time — store is on the
// hot path and memory runs out first: the largest persistent instance of the
// reconcile workload holds 4·10^4 literals in 7·10^3 clauses.
type clause struct {
	off, n uint32
}

type watcher struct {
	clauseIdx int32
	blocker   Lit // a literal whose truth makes the clause satisfied
}

// satSolver is a self-contained CDCL SAT solver instance. It supports two
// modes of use: one instance per query (solve), and MiniSat-style
// incremental solving (solveUnder), where one long-lived instance answers
// a stream of queries under changing assumption sets while keeping its
// learned clauses, variable activities, and saved phases alive between
// calls.
type satSolver struct {
	clauses []clause
	lits    []Lit       // clause arena; see clause
	gateOf  []int32     // per clause: the gate variable it defines, 0 if none (learned)
	watches [][]watcher // indexed by Lit.index()

	assign  []int8  // per var: valTrue/valFalse/valUnassigned
	level   []int32 // per var: decision level of assignment
	reason  []int32 // per var: clause that implied it, or -1 for decisions
	phase   []int8  // per var: saved phase for decisions
	trail   []Lit
	trailAt []int32 // trail length at each decision level
	qhead   int

	activity []float64
	varInc   float64
	heap     varHeap

	seen   []bool // scratch for conflict analysis
	learnt []Lit  // analyze's result buffer; recordLearned copies out of it

	// fanin holds, per gate variable, the variables of its 2–3 inputs (0 =
	// none; all zero for a symbolic input bit and litTrue). coneAt stamps a
	// variable with the epoch of the last cone that contained it; variable
	// 0 is stamped with every epoch, so a clause defining no gate is never
	// outside a cone. See restrictTo.
	fanin  [][3]int32
	coneAt []uint32
	epoch  uint32
	stack  []int32 // restrictTo's DFS stack

	conflicts int64
	decisions int64
	propags   int64
	learned   int64 // learned clauses (incl. units) recorded so far
	maxConfl  int64 // per-solve conflict budget, 0 = unlimited

	// Cone counters, read by tests only: solves whose cone left some
	// variable out, and out-of-cone watchers propagate passed over.
	strictCones int64
	skipped     int64
}

func newSatSolver() *satSolver {
	s := &satSolver{}
	s.reset()
	return s
}

// reset returns s to the state of a new instance while keeping every
// allocation it has made: all slices are cut to length zero (the
// per-variable ones are refilled with their initial values by addVarsUpTo as
// variables are created again), the watch lists are emptied one by one so
// addVarsUpTo can hand their capacity to the next life's variables, and the
// scalar state — varInc, the counters solveSAT adds to Stats wholesale, the
// propagation head, the budget — is that of newSatSolver.
func (s *satSolver) reset() {
	s.clauses = s.clauses[:0]
	s.lits = s.lits[:0]
	s.gateOf = s.gateOf[:0]
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	s.watches = s.watches[:0]
	s.assign = s.assign[:0]
	s.level = s.level[:0]
	s.reason = s.reason[:0]
	s.phase = s.phase[:0]
	s.trail = s.trail[:0]
	s.trailAt = s.trailAt[:0]
	s.qhead = 0
	s.activity = s.activity[:0]
	s.varInc = 1.0
	s.heap.data = s.heap.data[:0]
	s.heap.pos = s.heap.pos[:0]
	s.seen = s.seen[:0]
	s.fanin = s.fanin[:0]
	s.coneAt = s.coneAt[:0]
	s.epoch = 0
	s.conflicts, s.decisions, s.propags, s.learned, s.maxConfl = 0, 0, 0, 0, 0
	s.strictCones, s.skipped = 0, 0
	s.addVarsUpTo(0)
}

// newVar allocates a fresh variable and returns its positive literal.
func (s *satSolver) newVar() Lit {
	v := int32(len(s.assign))
	s.addVarsUpTo(int(v))
	return Lit(v)
}

// newGate allocates the output variable of a gate over inputs x, y and z
// (z is 0 for a two-input gate) and records its fan-in.
func (s *satSolver) newGate(x, y, z Lit) Lit {
	o := s.newVar()
	s.fanin[o] = [3]int32{x.v(), y.v(), z.v()}
	return o
}

func (s *satSolver) addVarsUpTo(v int) {
	for len(s.assign) <= v {
		s.assign = append(s.assign, valUnassigned)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, -1)
		s.phase = append(s.phase, valFalse)
		s.activity = append(s.activity, 0)
		s.seen = append(s.seen, false)
		s.fanin = append(s.fanin, [3]int32{})
		s.coneAt = append(s.coneAt, 0)
		s.heap.pos = append(s.heap.pos, -1)
		// Within capacity the two lists left behind by a previous life are
		// empty (reset) or nil (append's zeroed tail): take them with their
		// capacity instead of overwriting them with nil.
		if n := len(s.watches) + 2; n <= cap(s.watches) {
			s.watches = s.watches[:n]
		} else {
			s.watches = append(s.watches, nil, nil)
		}
		// A variable created after a cone was stamped is outside it: the
		// next restrictTo seeds the heap if a solve needs it.
		if len(s.assign) > 1 && s.epoch == 0 {
			s.heap.push(int32(len(s.assign)-1), s.activity)
		}
	}
}

func (s *satSolver) litValue(l Lit) int8 {
	v := s.assign[l.v()]
	if l < 0 {
		return -v
	}
	return v
}

// addClause installs a problem clause that defines no gate. It returns
// false if the clause set is already trivially unsatisfiable (empty clause
// or conflicting units at level 0).
func (s *satSolver) addClause(lits ...Lit) bool { return s.addGateClause(0, lits...) }

// addGateClause is addClause for one clause of gate variable gate's
// definition.
func (s *satSolver) addGateClause(gate Lit, lits ...Lit) bool {
	// Deduplicate and drop clauses with complementary literals.
	out := lits[:0:len(lits)]
	for _, l := range lits {
		dup := false
		for _, m := range out {
			if m == l {
				dup = true
				break
			}
			if m == -l {
				return true // tautology: a ∨ ¬a
			}
		}
		// Drop literals already false at level 0; clause satisfied if any
		// literal already true at level 0.
		if s.litValue(l) == valTrue && s.level[l.v()] == 0 {
			return true
		}
		if s.litValue(l) == valFalse && s.level[l.v()] == 0 {
			continue
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		return false
	case 1:
		if s.litValue(out[0]) == valFalse {
			return false
		}
		if s.litValue(out[0]) == valUnassigned {
			s.enqueue(out[0], -1)
		}
		return s.propagate() == -1
	}
	s.store(out, gate.v())
	return true
}

// store copies a clause of at least two literals into the arena, watches
// its first two literals and returns its index. It is the one place a
// clause is created, for problem and learned clauses alike; gate is the
// variable the clause defines, 0 for a learned clause.
func (s *satSolver) store(lits []Lit, gate int32) int32 {
	idx := int32(len(s.clauses))
	s.clauses = append(s.clauses, clause{off: uint32(len(s.lits)), n: uint32(len(lits))})
	s.gateOf = append(s.gateOf, gate)
	s.lits = append(s.lits, lits...)
	s.watch(lits[0], idx, lits[1])
	s.watch(lits[1], idx, lits[0])
	return idx
}

// clauseLits returns the arena window of clause idx. The slice is valid
// until the next store.
func (s *satSolver) clauseLits(idx int32) []Lit {
	c := s.clauses[idx]
	return s.lits[c.off : c.off+c.n]
}

func (s *satSolver) watch(l Lit, cl int32, blocker Lit) {
	i := l.index()
	s.watches[i] = append(s.watches[i], watcher{clauseIdx: cl, blocker: blocker})
}

func (s *satSolver) enqueue(l Lit, reason int32) {
	v := l.v()
	if l > 0 {
		s.assign[v] = valTrue
	} else {
		s.assign[v] = valFalse
	}
	s.level[v] = int32(len(s.trailAt))
	s.reason[v] = reason
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the index of a
// conflicting clause or -1 if no conflict arises.
//
// Above decision level 0 of a cone-restricted solve, a watcher of a clause
// whose gate is outside the cone is kept but not visited: nothing in the
// cone reads that gate, and backtracking to level 0 — where the next solve
// starts — unassigns whatever the watcher missed. At level 0 everything
// propagates, because a fact missed there would never be visited again.
func (s *satSolver) propagate() int32 {
	skip := s.epoch != 0 && s.decisionLevel() > 0
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propags++
		// Clauses watching ¬p must be checked.
		wi := (-p).index()
		ws := s.watches[wi]
		kept := ws[:0]
		conflict := int32(-1)
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.litValue(w.blocker) == valTrue {
				kept = append(kept, w)
				continue
			}
			if skip && s.coneAt[s.gateOf[w.clauseIdx]] != s.epoch {
				s.skipped++
				kept = append(kept, w)
				continue
			}
			lits := s.clauseLits(w.clauseIdx)
			// Normalise so lits[0] is the other watched literal.
			if lits[0] == -p {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if s.litValue(lits[0]) == valTrue {
				kept = append(kept, watcher{clauseIdx: w.clauseIdx, blocker: lits[0]})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for j := 2; j < len(lits); j++ {
				if s.litValue(lits[j]) != valFalse {
					lits[1], lits[j] = lits[j], lits[1]
					s.watch(lits[1], w.clauseIdx, lits[0])
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, w)
			if s.litValue(lits[0]) == valFalse {
				// Conflict: keep remaining watchers and bail out.
				kept = append(kept, ws[i+1:]...)
				conflict = w.clauseIdx
				break
			}
			s.enqueue(lits[0], w.clauseIdx)
		}
		s.watches[wi] = kept
		if conflict >= 0 {
			s.qhead = len(s.trail)
			return conflict
		}
	}
	return -1
}

func (s *satSolver) decisionLevel() int32 { return int32(len(s.trailAt)) }

func (s *satSolver) newDecisionLevel() {
	s.trailAt = append(s.trailAt, int32(len(s.trail)))
}

func (s *satSolver) backtrackTo(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailAt[lvl]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		l := s.trail[i]
		v := l.v()
		s.phase[v] = s.assign[v]
		s.assign[v] = valUnassigned
		s.reason[v] = -1
		if s.coneAt[v] == s.epoch {
			s.heap.pushIfAbsent(v, s.activity)
		}
	}
	s.trail = s.trail[:bound]
	s.trailAt = s.trailAt[:lvl]
	s.qhead = len(s.trail)
}

func (s *satSolver) bumpVar(v int32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v, s.activity)
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backjump level.
func (s *satSolver) analyze(conflIdx int32) ([]Lit, int32) {
	learned := append(s.learnt[:0], 0) // placeholder for the asserting literal
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	cl := conflIdx
	for {
		for _, q := range s.clauseLits(cl) {
			if q == p {
				continue
			}
			v := q.v()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] >= s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Select next literal from the trail to resolve on.
		for !s.seen[s.trail[idx].v()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.v()] = false
		counter--
		if counter == 0 {
			break
		}
		cl = s.reason[p.v()]
	}
	learned[0] = -p
	for _, l := range learned[1:] {
		s.seen[l.v()] = false
	}
	// Backjump level: highest level among the non-asserting literals.
	backLvl := int32(0)
	if len(learned) > 1 {
		maxI := 1
		for i := 2; i < len(learned); i++ {
			if s.level[learned[i].v()] > s.level[learned[maxI].v()] {
				maxI = i
			}
		}
		learned[1], learned[maxI] = learned[maxI], learned[1]
		backLvl = s.level[learned[1].v()]
	}
	s.learnt = learned
	return learned, backLvl
}

func (s *satSolver) recordLearned(lits []Lit) {
	s.learned++
	if len(lits) == 1 {
		s.enqueue(lits[0], -1)
		return
	}
	s.enqueue(lits[0], s.store(lits, 0))
}

func (s *satSolver) pickBranchVar() int32 {
	for {
		v, ok := s.heap.pop(s.activity)
		if !ok {
			return 0
		}
		if s.assign[v] == valUnassigned {
			return v
		}
	}
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// solve runs the CDCL main loop without assumptions. It returns valTrue
// for SAT, valFalse for UNSAT, and valUnassigned if the conflict budget
// was exhausted.
func (s *satSolver) solve() int8 { return s.solveUnder(nil) }

// solveUnder runs the CDCL main loop under a set of assumption literals,
// MiniSat-style: assumptions are pushed as pseudo-decisions at levels
// 1..len(assumptions), so restarts and backjumps re-install them
// automatically, and every clause learned along the way is implied by the
// problem clauses alone — it stays valid for later calls with different
// assumptions. The instance remains usable after any outcome; on valTrue
// the caller reads the model off the assignment and then backtracks to
// level 0.
//
// It returns valTrue for SAT under the assumptions, valFalse for UNSAT
// under them (or globally), and valUnassigned when the per-call conflict
// budget (maxConfl, measured relative to the call's start) is exhausted.
func (s *satSolver) solveUnder(assumptions []Lit) int8 {
	s.backtrackTo(0)
	startConfl := s.conflicts
	if s.propagate() >= 0 {
		return valFalse
	}
	restartUnit := int64(100)
	restartNo := int64(1)
	budget := restartUnit * luby(restartNo)
	conflictsAtRestart := int64(0)
	for {
		confl := s.propagate()
		if confl >= 0 {
			s.conflicts++
			conflictsAtRestart++
			if s.decisionLevel() == 0 {
				return valFalse
			}
			learned, backLvl := s.analyze(confl)
			s.backtrackTo(backLvl)
			s.recordLearned(learned)
			s.varInc /= 0.95
			if s.maxConfl > 0 && s.conflicts-startConfl >= s.maxConfl {
				return valUnassigned
			}
			continue
		}
		if conflictsAtRestart >= budget {
			conflictsAtRestart = 0
			restartNo++
			budget = restartUnit * luby(restartNo)
			s.backtrackTo(0)
			continue
		}
		if lvl := int(s.decisionLevel()); lvl < len(assumptions) {
			a := assumptions[lvl]
			switch s.litValue(a) {
			case valTrue:
				// Already implied: open an empty decision level to keep
				// the level <-> assumption-index alignment.
				s.newDecisionLevel()
			case valFalse:
				// The clause database (plus earlier assumptions) forces
				// ¬a: the query is UNSAT under the assumptions, though
				// the instance itself may well stay satisfiable.
				return valFalse
			default:
				s.decisions++
				s.newDecisionLevel()
				s.enqueue(a, -1)
			}
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			return valTrue // every variable of the heap (the cone) assigned
		}
		s.decisions++
		s.newDecisionLevel()
		if s.phase[v] == valTrue {
			s.enqueue(Lit(v), -1)
		} else {
			s.enqueue(-Lit(v), -1)
		}
	}
}

// restrictTo makes the fan-in cone of assumptions the search space of the
// next solveUnder: it stamps the cone with a new epoch by DFS over fanin and
// reseeds the decision heap with the cone's unassigned variables. The
// instance must be at decision level 0.
//
// The cone is closed under fan-in, so once every cone variable is assigned
// without conflict every clause defining a cone gate is satisfied;
// evaluating the remaining gates bottom-up extends that assignment to one
// satisfying every definition, and with them every learned clause, which
// the definitions imply. So an assigned cone is a model of the instance
// under the assumptions, and solveUnder may answer SAT there.
func (s *satSolver) restrictTo(assumptions []Lit) {
	s.nextEpoch()
	s.coneAt[0] = s.epoch
	for _, v := range s.heap.data {
		s.heap.pos[v] = -1
	}
	s.heap.data = s.heap.data[:0]
	size := 0
	stack := s.stack[:0]
	for _, a := range assumptions {
		stack = append(stack, a.v())
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if s.coneAt[v] == s.epoch {
				continue
			}
			s.coneAt[v] = s.epoch
			size++
			if s.assign[v] == valUnassigned {
				s.heap.data = append(s.heap.data, v)
			}
			for _, u := range s.fanin[v] {
				if s.coneAt[u] != s.epoch {
					stack = append(stack, u)
				}
			}
		}
	}
	s.stack = stack
	s.heap.heapify(s.activity)
	if size < len(s.assign)-1 {
		s.strictCones++
	}
}

// release ends a cone-restricted solve: it backtracks to level 0 without
// refilling the decision heap — the next restrictTo reseeds it — by first
// moving to an epoch no variable carries.
func (s *satSolver) release() {
	s.nextEpoch()
	s.backtrackTo(0)
}

// nextEpoch starts an epoch no variable is stamped with.
func (s *satSolver) nextEpoch() {
	s.epoch++
	if s.epoch == 0 { // wrapped: clear the stamps of 2^32 epochs ago
		clear(s.coneAt)
		s.epoch = 1
	}
}

// varHeap is a max-heap of variables ordered by activity, with lazy
// deletion (popped variables may be re-pushed on backtrack). pos is the
// dense position index: pos[v] is v's index in data, -1 while v is not in
// the heap. The owner grows pos with its variables (addVarsUpTo).
type varHeap struct {
	data []int32
	pos  []int32
}

func (h *varHeap) less(i, j int, act []float64) bool {
	return act[h.data[i]] > act[h.data[j]]
}

func (h *varHeap) swap(i, j int) {
	h.data[i], h.data[j] = h.data[j], h.data[i]
	h.pos[h.data[i]] = int32(i)
	h.pos[h.data[j]] = int32(j)
}

func (h *varHeap) up(i int, act []float64) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent, act) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int, act []float64) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.data) && h.less(l, best, act) {
			best = l
		}
		if r < len(h.data) && h.less(r, best, act) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *varHeap) push(v int32, act []float64) {
	h.data = append(h.data, v)
	h.pos[v] = int32(len(h.data) - 1)
	h.up(len(h.data)-1, act)
}

// heapify orders data, filled in any order, into a heap and indexes it.
func (h *varHeap) heapify(act []float64) {
	for i, v := range h.data {
		h.pos[v] = int32(i)
	}
	for i := len(h.data)/2 - 1; i >= 0; i-- {
		h.down(i, act)
	}
}

func (h *varHeap) pushIfAbsent(v int32, act []float64) {
	if h.pos[v] < 0 {
		h.push(v, act)
	}
}

func (h *varHeap) pop(act []float64) (int32, bool) {
	if len(h.data) == 0 {
		return 0, false
	}
	v := h.data[0]
	last := len(h.data) - 1
	h.swap(0, last)
	h.data = h.data[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0, act)
	}
	return v, true
}

func (h *varHeap) update(v int32, act []float64) {
	if i := h.pos[v]; i >= 0 {
		h.up(int(i), act)
	}
}
