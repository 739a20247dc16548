package solver

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sde/internal/expr"
)

// The tests of the SAT core's memory layout: the dense heap index, the
// clause arena and the recycled from-scratch instances change where the
// solver's data lives and must not change one decision it makes.
// TestGoldenTrajectory (trajectory_test.go) pins the search end to end;
// the tests here pin each piece against a reference.

// refHeap is the map-indexed heap varHeap replaced, kept as the reference
// of TestVarHeapDifferential: same sift-up and sift-down, position index in
// a hash map.
type refHeap struct {
	data []int32
	pos  map[int32]int
}

func (h *refHeap) swap(i, j int) {
	h.data[i], h.data[j] = h.data[j], h.data[i]
	h.pos[h.data[i]], h.pos[h.data[j]] = i, j
}

func (h *refHeap) up(i int, act []float64) {
	for p := (i - 1) / 2; i > 0 && act[h.data[i]] > act[h.data[p]]; i, p = p, (p-1)/2 {
		h.swap(i, p)
	}
}

func (h *refHeap) push(v int32, act []float64) {
	h.data = append(h.data, v)
	h.pos[v] = len(h.data) - 1
	h.up(len(h.data)-1, act)
}

func (h *refHeap) pop(act []float64) (int32, bool) {
	if len(h.data) == 0 {
		return 0, false
	}
	v, last := h.data[0], len(h.data)-1
	h.swap(0, last)
	h.data = h.data[:last]
	delete(h.pos, v)
	for i := 0; ; {
		best := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < last && act[h.data[c]] > act[h.data[best]] {
				best = c
			}
		}
		if best == i {
			return v, true
		}
		h.swap(i, best)
		i = best
	}
}

// TestVarHeapDifferential drives varHeap and the map-indexed reference with
// one seeded sequence of the operations the solver performs — push,
// pushIfAbsent, pop, update after an activity bump, and the 1e-100 rescale
// — and requires the same pop results, the same membership and the same
// array at every step. Most activities tie at 0 for long stretches, so the
// order is decided by the sift structure, which is what must not move.
func TestVarHeapDifferential(t *testing.T) {
	const nVars = 96
	rng := rand.New(rand.NewSource(20))
	act := make([]float64, nVars+1)
	h := varHeap{pos: make([]int32, nVars+1)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	ref := refHeap{pos: make(map[int32]int)}
	inc, rescales := 1.0, 0
	for step := 0; step < 40000; step++ {
		v := int32(1 + rng.Intn(nVars))
		_, present := ref.pos[v]
		switch op := rng.Intn(8); {
		case op == 0:
			if !present { // the solver pushes a variable once, at creation
				h.push(v, act)
				ref.push(v, act)
			}
		case op <= 2:
			h.pushIfAbsent(v, act)
			if !present {
				ref.push(v, act)
			}
		case op <= 4:
			got, gotOK := h.pop(act)
			want, wantOK := ref.pop(act)
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d: pop = %d,%v, reference %d,%v", step, got, gotOK, want, wantOK)
			}
		default: // bumpVar
			act[v] += inc
			if act[v] > 1e100 {
				for i := range act {
					act[i] *= 1e-100
				}
				inc *= 1e-100
				rescales++
			}
			inc /= 0.95
			h.update(v, act)
			if i, ok := ref.pos[v]; ok {
				ref.up(i, act)
			}
		}
		if !slices.Equal(h.data, ref.data) {
			t.Fatalf("step %d: heap arrays differ:\n got  %v\n want %v", step, h.data, ref.data)
		}
		for v := int32(1); v <= nVars; v++ {
			i, ok := ref.pos[v]
			if !ok {
				i = -1
			}
			if int(h.pos[v]) != i {
				t.Fatalf("step %d: pos[%d] = %d, reference %d", step, v, h.pos[v], i)
			}
		}
	}
	if rescales == 0 {
		t.Error("the sequence never rescaled the activities")
	}
}

// satRun is everything observable about one solve of a satSolver: verdict,
// full assignment, the counters Stats adds wholesale, and the search state a
// next solve would start from (a drifted varInc alone moves no decision
// until an activity crosses the rescale threshold at a different conflict).
type satRun struct {
	Verdict                       int8
	Assign, Phase                 []int8
	Activity                      []float64
	VarInc                        float64
	Conflicts, Decisions, Propags int64
	Learned                       int64
	Clauses, Lits                 int
}

func observe(s *satSolver, verdict int8) satRun {
	return satRun{
		Verdict: verdict, Assign: slices.Clone(s.assign), Phase: slices.Clone(s.phase),
		Activity: slices.Clone(s.activity), VarInc: s.varInc,
		Conflicts: s.conflicts, Decisions: s.decisions, Propags: s.propags,
		Learned: s.learned, Clauses: len(s.clauses), Lits: len(s.lits),
	}
}

// solveCNF loads a CNF into s, which is in its initial state, and solves it
// under the given conflict budget.
func solveCNF(s *satSolver, nVars int, clauses [][]Lit, maxConfl int64) satRun {
	s.maxConfl = maxConfl
	for i := 0; i < nVars; i++ {
		s.newVar()
	}
	for _, cl := range clauses {
		if !s.addClause(slices.Clone(cl)...) {
			return observe(s, valFalse)
		}
	}
	return observe(s, s.solve())
}

// TestResetEqualsFreshSAT: an instance that has solved an unrelated, larger
// problem and was reset returns the same verdict, the same full assignment
// and the same conflict, decision and propagation counts as a new one, on
// random 3-CNFs — also when what it did before ended on an exhausted budget
// (trail and decision levels left standing) or UNSAT at level 0, and
// however many lives it has had: one instance is recycled through all
// trials.
func TestResetEqualsFreshSAT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recycled := newSatSolver()
	sawBudget, sawLevel0 := false, false
	for trial := 0; trial < 300; trial++ {
		// The predecessor: larger than anything random3CNF draws, so every
		// slice of the recycled instance is longer than the problem needs.
		switch trial % 4 {
		case 0: // out of budget mid-search
			n, cls := pigeonhole(7, 6)
			pre := solveCNF(recycled, n, cls, 3)
			sawBudget = sawBudget || pre.Verdict == valUnassigned
		case 1: // refuted while loading
			a := Lit(20)
			pre := solveCNF(recycled, 40, [][]Lit{{a, 5}, {a}, {-a}}, 0)
			sawLevel0 = sawLevel0 || (pre.Verdict == valFalse && pre.Conflicts == 0)
		case 2: // UNSAT after real search: learned clauses, bumped activities
			n, cls := pigeonhole(5, 4)
			solveCNF(recycled, n, cls, 0)
		default: // SAT: a full assignment and saved phases left standing
			n, cls := pigeonhole(5, 5)
			solveCNF(recycled, n, cls, 0)
		}
		recycled.reset()

		nVars, clauses := random3CNF(rng)
		want := solveCNF(newSatSolver(), nVars, clauses, 0)
		got := solveCNF(recycled, nVars, clauses, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, m=%d): recycled instance diverged from a fresh one:\n got  %+v\n want %+v",
				trial, nVars, len(clauses), got, want)
		}
		recycled.reset()
	}
	if !sawBudget || !sawLevel0 {
		t.Errorf("predecessors did not cover both hard cases: budget-exhausted %v, UNSAT at level 0 %v", sawBudget, sawLevel0)
	}
}

// blastRun is everything observable about one decide on a blaster.
type blastRun struct {
	Sat    bool
	Model  expr.Env
	Err    error
	Gates  int64
	Search satRun
}

func decideOn(bl *blaster, constraints []*expr.Expr, maxConfl int64) blastRun {
	bl.sat.maxConfl = maxConfl
	sat, model, err := bl.decide(constraints)
	return blastRun{Sat: sat, Model: model, Err: err, Gates: bl.gates, Search: observe(bl.sat, 0)}
}

// TestResetEqualsFreshBlast is TestResetEqualsFreshSAT one level up: the
// instance + blaster pair solveSAT recycles, on bit-blasted queries. One
// pair lives through the whole corpus; between queries it decides a larger
// unrelated query, runs out of budget on one, or refutes one at level 0,
// and is reset.
func TestResetEqualsFreshBlast(t *testing.T) {
	eb := expr.NewBuilder()
	var corpus [][]*expr.Expr
	for _, q := range append(PrefixExtensionQueries(eb, 6), RunicastPrefixQueries(eb, 2, 4)...) {
		corpus = append(corpus, append(slices.Clone(q.Prefix), q.Extra))
	}
	for i := 0; i < 8; i++ {
		corpus = append(corpus, ReconcileModelQuery(eb, uint64(i)<<12|0x55))
	}
	x, y := eb.Var("px", 16), eb.Var("py", 16)
	one := eb.Const(1, 16)
	factor := []*expr.Expr{eb.Eq(eb.Mul(x, y), eb.Const(62615, 16)), eb.Ult(one, x), eb.Ult(one, y)}
	level0 := []*expr.Expr{eb.Eq(x, eb.Const(5, 16)), eb.Eq(x, eb.Const(6, 16))}

	recycled := newBlaster(newSatSolver())
	sawBudget, sawLevel0 := false, false
	for i, q := range corpus {
		switch i % 3 {
		case 0:
			pre := decideOn(recycled, factor, 2)
			sawBudget = sawBudget || errors.Is(pre.Err, ErrBudget)
		case 1:
			pre := decideOn(recycled, level0, 0)
			sawLevel0 = sawLevel0 || (!pre.Sat && pre.Err == nil && pre.Search.Decisions == 0)
		default:
			decideOn(recycled, factor, 0)
		}
		recycled.reset()

		want := decideOn(newBlaster(newSatSolver()), q, 0)
		got := decideOn(recycled, q, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: recycled pair diverged from a fresh one:\n got  %+v\n want %+v", i, got, want)
		}
		if got.Sat && !satisfies(got.Model, q) {
			t.Fatalf("query %d: model %v does not satisfy the query", i, got.Model)
		}
		recycled.reset()
	}
	if !sawBudget || !sawLevel0 {
		t.Errorf("predecessors did not cover both hard cases: budget-exhausted %v, UNSAT at level 0 %v", sawBudget, sawLevel0)
	}
}

// modelQueryAllocBound is what one from-scratch solve (solveSAT) of a
// reconcile-shaped query may allocate in steady state. What is left to
// allocate is the model (read by variable id, then keyed by name) and the
// per-node []Lit words of the blast memo: 16 objects; 34 per model query,
// partition included, when this bound was
// set, against
// 1,067 when every query built a new instance (one slice per clause, seven
// appends per variable, two watch lists per variable grown from nil, fresh
// memo tables).
const modelQueryAllocBound = 100

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestModelQueryAllocs: the k-th from-scratch solve allocates nothing for
// its instance that its predecessors already did. It calls solveSAT, the
// solve behind every Witness component, directly: Witness's memo would
// answer a repeated query.
func TestModelQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what is Put under the race detector")
	}
	eb := expr.NewBuilder()
	q := ReconcileModelQuery(eb, 0x3055)
	s := New()
	allocs := testing.AllocsPerRun(200, func() {
		if ok, _, err := s.solveSAT(q); err != nil || !ok {
			t.Fatal(ok, err)
		}
	})
	if st := s.Stats(); st.Gates < 200 {
		t.Fatalf("the query was not bit-blasted every time: %d gates", st.Gates)
	}
	t.Logf("%v allocs per from-scratch solve", allocs)
	if allocs > modelQueryAllocBound {
		t.Errorf("a model query allocates %v objects in steady state, bound %d", allocs, modelQueryAllocBound)
	}
}

// TestPooledInstancesConcurrent: solveSAT is reached from several
// goroutines at once (sharded runs, lease workers, TestCases beside an
// exploration), all drawing on one pool of instances. Each goroutine here
// has its own Solver and Builder and interleaves SAT, UNSAT and
// budget-exhausted witnesses; every model must satisfy its query and
// equal the one a lone solver returned for the same query, whichever
// recycled instance produced it. Run under -race -count=10 in CI.
func TestPooledInstancesConcurrent(t *testing.T) {
	type query struct {
		cs      []*expr.Expr
		limited bool // decide on the budgeted solver
	}
	build := func(eb *expr.Builder) []query {
		var qs []query
		x, y := eb.Var("px", 16), eb.Var("py", 16)
		one := eb.Const(1, 16)
		for i := 0; i < 24; i++ {
			qs = append(qs, query{cs: ReconcileModelQuery(eb, uint64(i)<<12|0x55)})
			a := eb.Add(eb.ZExt(eb.Var("ts_a", 8), 32), eb.Const(uint64(i), 32))
			qs = append(qs, query{cs: []*expr.Expr{eb.Ult(a, eb.Const(uint64(i), 32)), eb.Ult(eb.Const(300, 32), a)}})
			n := eb.Const(uint64(62615-2*i), 16)
			qs = append(qs, query{cs: []*expr.Expr{eb.Eq(eb.Mul(x, y), n), eb.Ult(one, x), eb.Ult(one, y)}, limited: true})
		}
		return qs
	}
	type answer struct {
		model expr.Env
		sat   bool
		err   error
	}
	run := func() []answer {
		eb := expr.NewBuilder()
		open := New()
		budgeted := NewWithOptions(Options{MaxConflicts: 2})
		var out []answer
		for i, q := range build(eb) {
			s := open
			if q.limited {
				s = budgeted
			}
			model, sat, err := s.Witness(q.cs)
			if sat && !satisfies(model, q.cs) {
				t.Errorf("query %d: model %v does not satisfy the query", i, model)
			}
			out = append(out, answer{model, sat, err})
		}
		return out
	}

	want := run()
	var nSat, nUnsat, nBudget int
	for _, a := range want {
		switch {
		case errors.Is(a.err, ErrBudget):
			nBudget++
		case a.sat:
			nSat++
		default:
			nUnsat++
		}
	}
	if nSat == 0 || nUnsat == 0 || nBudget == 0 {
		t.Fatalf("corpus does not mix outcomes: %d SAT, %d UNSAT, %d budget-exhausted", nSat, nUnsat, nBudget)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				got := run()
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("goroutine %d round %d query %d: %+v, a lone solver answered %+v", g, round, i, got[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
