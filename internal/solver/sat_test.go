package solver

import (
	"math/rand"
	"testing"
)

func TestSATTrivial(t *testing.T) {
	s := newSatSolver()
	a := s.newVar()
	b := s.newVar()
	if !s.addClause(a, b) {
		t.Fatal("adding (a ∨ b) reported conflict")
	}
	if s.solve() != valTrue {
		t.Fatal("(a ∨ b) should be SAT")
	}
	if s.litValue(a) != valTrue && s.litValue(b) != valTrue {
		t.Error("model does not satisfy (a ∨ b)")
	}
}

func TestSATUnit(t *testing.T) {
	s := newSatSolver()
	a := s.newVar()
	if !s.addClause(a) {
		t.Fatal("unit clause reported conflict")
	}
	if s.solve() != valTrue {
		t.Fatal("unit problem should be SAT")
	}
	if s.litValue(a) != valTrue {
		t.Error("unit literal not assigned true")
	}
}

func TestSATContradiction(t *testing.T) {
	s := newSatSolver()
	a := s.newVar()
	ok1 := s.addClause(a)
	ok2 := s.addClause(-a)
	if ok1 && ok2 && s.solve() != valFalse {
		t.Error("a ∧ ¬a should be UNSAT")
	}
}

func TestSATPigeonhole(t *testing.T) {
	// 4 pigeons, 3 holes: classic small UNSAT instance requiring real
	// conflict analysis.
	nVars, clauses := pigeonhole(4, 3)
	s := newSatSolver()
	for i := 0; i < nVars; i++ {
		s.newVar()
	}
	ok := true
	for _, cl := range clauses {
		ok = s.addClause(cl...) && ok
	}
	if ok && s.solve() != valFalse {
		t.Error("pigeonhole(4,3) should be UNSAT")
	}
}

// pigeonhole builds the CNF "pigeons fit into holes, one per hole": variable
// 1+p*holes+h puts pigeon p in hole h. UNSAT iff pigeons > holes.
func pigeonhole(pigeons, holes int) (nVars int, clauses [][]Lit) {
	v := func(p, h int) Lit { return Lit(1 + p*holes + h) }
	for p := 0; p < pigeons; p++ {
		var cl []Lit
		for h := 0; h < holes; h++ {
			cl = append(cl, v(p, h))
		}
		clauses = append(clauses, cl)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				clauses = append(clauses, []Lit{-v(p1, h), -v(p2, h)})
			}
		}
	}
	return pigeons * holes, clauses
}

func TestSATTautologyDropped(t *testing.T) {
	s := newSatSolver()
	a := s.newVar()
	if !s.addClause(a, -a) {
		t.Error("tautological clause reported conflict")
	}
	if s.solve() != valTrue {
		t.Error("empty effective problem should be SAT")
	}
}

// bruteForceSAT decides a CNF by enumeration; usable up to ~20 variables.
func bruteForceSAT(nVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, cl := range clauses {
			clauseSat := false
			for _, l := range cl {
				bit := (m>>uint(l.v()-1))&1 == 1
				if (l > 0) == bit {
					clauseSat = true
					break
				}
			}
			if !clauseSat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// random3CNF draws a 3-CNF over 5..13 variables around the phase-transition
// density.
func random3CNF(rng *rand.Rand) (nVars int, clauses [][]Lit) {
	nVars = 5 + rng.Intn(9) // 5..13
	nClauses := int(float64(nVars) * (3.0 + rng.Float64()*2.5))
	for i := 0; i < nClauses; i++ {
		cl := make([]Lit, 3)
		for j := range cl {
			v := Lit(1 + rng.Intn(nVars))
			if rng.Intn(2) == 0 {
				v = -v
			}
			cl[j] = v
		}
		clauses = append(clauses, cl)
	}
	return nVars, clauses
}

// TestSATRandom3CNF cross-checks CDCL against brute force on random 3-CNF
// instances around the phase-transition density.
func TestSATRandom3CNF(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		nVars, clauses := random3CNF(rng)
		want := bruteForceSAT(nVars, clauses)

		s := newSatSolver()
		for i := 0; i < nVars; i++ {
			s.newVar()
		}
		consistent := true
		for _, cl := range clauses {
			if !s.addClause(cl...) {
				consistent = false
				break
			}
		}
		var got bool
		if !consistent {
			got = false
		} else {
			got = s.solve() == valTrue
		}
		if got != want {
			t.Fatalf("trial %d (n=%d, m=%d): CDCL=%v brute=%v",
				trial, nVars, len(clauses), got, want)
		}
		// When SAT, the assignment must satisfy every clause.
		if got {
			for ci, cl := range clauses {
				sat := false
				for _, l := range cl {
					if s.litValue(l) == valTrue {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: clause %d unsatisfied by model", trial, ci)
				}
			}
		}
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestConflictBudget(t *testing.T) {
	// A hard UNSAT instance with a tiny budget must report unknown
	// (valUnassigned), not a wrong answer.
	nVars, clauses := pigeonhole(7, 6)
	s := newSatSolver()
	s.maxConfl = 3
	for i := 0; i < nVars; i++ {
		s.newVar()
	}
	for _, cl := range clauses {
		s.addClause(cl...)
	}
	if got := s.solve(); got == valTrue {
		t.Error("budgeted run of an UNSAT instance returned SAT")
	}
}
