package solver

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sde/internal/expr"
)

func randomTerm(eb *expr.Builder, rng *rand.Rand, vars []*expr.Expr, depth int) *expr.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(3) == 0 {
			w := vars[0].Width()
			return eb.Const(rng.Uint64()&(1<<w-1), w)
		}
		return vars[rng.Intn(len(vars))]
	}
	x := randomTerm(eb, rng, vars, depth-1)
	y := randomTerm(eb, rng, vars, depth-1)
	// Dividers and barrel shifters are built from three-input mux gates,
	// so these four put a select input into the fan-in cones.
	switch rng.Intn(10) {
	case 0:
		return eb.Add(x, y)
	case 1:
		return eb.Sub(x, y)
	case 2:
		return eb.Mul(x, y)
	case 3:
		return eb.And(x, y)
	case 4:
		return eb.Or(x, y)
	case 5:
		return eb.UDiv(x, y)
	case 6:
		return eb.URem(x, y)
	case 7:
		return eb.Shl(x, y)
	case 8:
		return eb.LShr(x, y)
	default:
		return eb.Xor(x, y)
	}
}

// level0Open returns the first stored clause of s that level-0 propagation
// left open — every literal but at most one false at level 0 and none true
// there — or -1. A cone-restricted solve skips out-of-cone watchers only
// above level 0, so on a persistent instance between solves there is none.
func level0Open(s *satSolver) int32 {
	at0 := func(l Lit, val int8) bool { return s.litValue(l) == val && s.level[l.v()] == 0 }
	for i := range s.clauses {
		open := 0
		for _, l := range s.clauseLits(int32(i)) {
			if at0(l, valTrue) {
				open = 2
				break
			}
			if !at0(l, valFalse) {
				open++
			}
		}
		if open < 2 {
			return int32(i)
		}
	}
	return -1
}

func randomConstraint(eb *expr.Builder, rng *rand.Rand, vars, bools []*expr.Expr) *expr.Expr {
	// Sometimes emit a pure boolean literal, the shape the engine's
	// failure decisions take (exercises the literal fast path).
	if rng.Intn(4) == 0 {
		d := bools[rng.Intn(len(bools))]
		if rng.Intn(2) == 0 {
			return eb.Not(d)
		}
		return d
	}
	x := randomTerm(eb, rng, vars, 2)
	y := randomTerm(eb, rng, vars, 2)
	var c *expr.Expr
	switch rng.Intn(4) {
	case 0:
		c = eb.Eq(x, y)
	case 1:
		c = eb.Ne(x, y)
	case 2:
		c = eb.Ult(x, y)
	default:
		c = eb.Ule(x, y)
	}
	if rng.Intn(3) == 0 {
		c = eb.Not(c)
	}
	return c
}

// TestIncrementalDifferential is the soundness guard for the incremental
// pipeline: a randomized exploration — monotonically growing path
// conditions with fork points whose siblings diverge from a shared prefix
// — is decided three ways in lockstep, and all must agree on every query:
//
//   - oracle: Witness, from-scratch solving that reads no cache;
//   - bare:   the persistent incremental instance (solveIncremental on the
//     constant-folded set, which is checkQuery with every layer off);
//   - full:   the default pipeline (caches, pool, subsumption, partition).
//
// Every model the bare persistent instance and the oracle return is
// validated against the ground-truth evaluator. Well over 1000
// prefix-extension queries run over one shared set of variables; then a
// second phase explores variable-disjoint groups, one group per branch, so
// that the persistent instance holds circuits a query does not reach and
// its solves are restricted to a strict cone of it.
func TestIncrementalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eb := expr.NewBuilder()
	type group struct{ vars, bools []*expr.Expr }
	newGroup := func(tag string) group {
		return group{
			vars:  []*expr.Expr{eb.Var("a"+tag, 8), eb.Var("b"+tag, 8), eb.Var("c"+tag, 8)},
			bools: []*expr.Expr{eb.Var("d0"+tag, 1), eb.Var("d1"+tag, 1), eb.Var("d2"+tag, 1)},
		}
	}

	full := New()
	bare := New()
	oracle := New()
	// bareSolve folds constants as checkQuery does and decides the rest on
	// bare's persistent instance, returning the model it reads off the cone.
	bareSolve := func(pc []*expr.Expr, c *expr.Expr) (bool, expr.Env, error) {
		active := make([]*expr.Expr, 0, len(pc)+1)
		for _, q := range append(slices.Clip(pc), c) {
			if q.IsFalse() {
				return false, nil, nil
			}
			if !q.IsTrue() {
				active = append(active, q)
			}
		}
		if len(active) == 0 {
			return true, expr.Env{}, nil
		}
		return bare.solveIncremental(&bare.slot0, active)
	}

	// closed fails the test if a clause of the persistent instance is open
	// at level 0.
	closed := func(when string) {
		t.Helper()
		if ic := bare.slot0.ic; ic != nil {
			if i := level0Open(ic.sat); i >= 0 {
				t.Fatalf("%s: clause %v of the persistent instance is open at level 0", when, ic.sat.clauseLits(i))
			}
		}
	}
	// holds fails the test unless model satisfies every constraint.
	holds := func(model expr.Env, pc []*expr.Expr, c *expr.Expr, step int, who string) {
		t.Helper()
		for _, q := range pc {
			if expr.Eval(q, model) == 0 {
				t.Fatalf("step %d: %s model %v violates prefix constraint", step, who, model)
			}
		}
		if expr.Eval(c, model) == 0 {
			t.Fatalf("step %d: %s model %v violates the extension", step, who, model)
		}
	}
	ask := func(pc []*expr.Expr, c *expr.Expr, step int) bool {
		oracleModel, want, err := oracle.Witness(append(slices.Clip(pc), c))
		if err != nil {
			t.Fatalf("step %d: oracle: %v", step, err)
		}
		if want {
			holds(oracleModel, pc, c, step, "witness")
		}
		gotBare, bareModel, err := bareSolve(pc, c)
		if err != nil {
			t.Fatalf("step %d: bare incremental: %v", step, err)
		}
		if gotBare {
			holds(bareModel, pc, c, step, "persistent-instance")
		}
		if step%32 == 0 {
			closed(fmt.Sprintf("step %d", step))
		}
		gotFull, err := full.FeasibleWith(nil, pc, c)
		if err != nil {
			t.Fatalf("step %d: full pipeline: %v", step, err)
		}
		if gotBare != want || gotFull != want {
			t.Fatalf("step %d: verdicts disagree: oracle=%v bare=%v full=%v (|pc|=%d)",
				step, want, gotBare, gotFull, len(pc))
		}
		return want
	}

	// explore runs target queries; each branch lives in one of groups, and
	// a fork's sibling stays in its parent's group.
	type branch struct {
		pc []*expr.Expr
		g  group
	}
	step := 0
	explore := func(target int, groups []group) {
		var branches []branch // the path condition of every live branch
		for _, g := range groups {
			branches = append(branches, branch{g: g})
		}
		for queries := 0; queries < target; step++ {
			i := rng.Intn(len(branches))
			pc, g := branches[i].pc, branches[i].g
			c := randomConstraint(eb, rng, g.vars, g.bools)
			notC := eb.Not(c)
			feasC := ask(pc, c, step)
			queries++
			feasNot := ask(pc, notC, step)
			queries++
			switch {
			case feasC && feasNot:
				// Fork: the sibling takes the negated side on a copy of the
				// prefix, mirroring vm.State.Fork + AddConstraint.
				if len(branches) < 24 && rng.Intn(2) == 0 {
					branches = append(branches, branch{append(append([]*expr.Expr(nil), pc...), notC), g})
				}
				branches[i].pc = append(pc, c)
			case feasC:
				branches[i].pc = append(pc, c)
			case feasNot:
				branches[i].pc = append(pc, notC)
			default:
				t.Fatalf("step %d: both sides infeasible under a feasible prefix", step)
			}
		}
	}

	// The acceptance bar is ≥1000 prefix-extension queries; -short and the
	// race detector (ten times slower here, and CI repeats this test under
	// it) keep those runs fast while the regular run covers the full count.
	target, disjoint := 1200, 600
	if testing.Short() || raceEnabled {
		target, disjoint = 250, 150
	}
	explore(target, []group{newGroup("")})
	explore(disjoint, []group{newGroup("0"), newGroup("1"), newGroup("2"), newGroup("3")})

	closed("end")
	if sat := bare.slot0.ic.sat; sat.strictCones == 0 || sat.skipped == 0 {
		t.Errorf("no solve of the persistent instance was restricted: %d strict cones, %d skipped watchers",
			sat.strictCones, sat.skipped)
	}
	if st := bare.Stats(); st.EncodeSkips == 0 {
		t.Error("bare incremental solver never found a prefix constraint in its blast memo")
	}
	// The full pipeline answers most of this workload from its caches, so
	// only assert it reached the persistent instance.
	if st := full.Stats(); st.IncSolves == 0 {
		t.Error("full pipeline never used the persistent instance")
	}
}

// TestFailureLiteralBesideDataConstraint is the traffic shape every SDE
// scenario has: a failure model's boolean decision literal next to a data
// constraint. The two are variable-disjoint, so the query partitions; the
// literal is answered by the scan and the data component goes to the
// slot's persistent instance — where the second query finds it already
// blasted: one memo lookup, no new gate. Cache and pool are off so that
// the second query reaches the instance at all.
func TestFailureLiteralBesideDataConstraint(t *testing.T) {
	eb := expr.NewBuilder()
	pc := []*expr.Expr{
		eb.Var("drop0", 1),
		eb.Ult(eb.Var("reading", 16), eb.Const(500, 16)),
	}
	s := NewWithOptions(Options{DisableCache: true, DisablePool: true})
	query := func() Stats {
		t.Helper()
		if sat, err := s.Feasible(pc); err != nil || !sat {
			t.Fatalf("sat=%v err=%v", sat, err)
		}
		return s.Stats()
	}
	first := query()
	if first.Partitions != 1 || first.FastPath != 1 || first.IncSolves != 1 || first.Gates == 0 || first.EncodeSkips != 0 {
		t.Fatalf("first query: %+v, want one partition, one literal scan, one first-time encode on the persistent instance", first)
	}
	st := query()
	if st.IncSolves != 2 {
		t.Errorf("IncSolves = %d after the second query, want 2 (the data component solved on the persistent instance)", st.IncSolves)
	}
	if st.EncodeSkips != 1 {
		t.Errorf("EncodeSkips = %d after the second query, want 1 (the data constraint served by the blast memo)", st.EncodeSkips)
	}
	if st.Gates != first.Gates {
		t.Errorf("second query allocated %d new gates, want 0", st.Gates-first.Gates)
	}
}

// TestIncrementalConcurrentSessions exercises the documented concurrency
// contract under -race: one Solver, many goroutines, each replaying the
// prefix-extension workload against the one slot-0 instance.
func TestIncrementalConcurrentSessions(t *testing.T) {
	eb := expr.NewBuilder()
	queries := PrefixExtensionQueries(eb, 8)
	s := New()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				if _, err := s.FeasibleWith(nil, q.Prefix, q.Extra); err != nil {
					errs <- fmt.Errorf("query %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
