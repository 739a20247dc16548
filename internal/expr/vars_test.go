package expr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestComponentsMatchesClosure holds Components to a naive transitive
// closure: random expressions over random variable subsets (some over none
// at all), grouped by "shares a variable, directly or through a chain",
// labelled in order of each group's first expression.
func TestComponentsMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		b := NewBuilder()
		nVars := 1 + rng.Intn(10)
		vars := make([]*Expr, nVars)
		for i := range vars {
			vars[i] = b.Var(fmt.Sprintf("v%d", i), 8)
		}
		n := rng.Intn(12)
		es := make([]*Expr, n)
		uses := make([][]int, n) // variable indices of each expression
		for i := range es {
			e := b.Const(uint64(rng.Intn(256)), 8)
			for _, v := range rng.Perm(nVars)[:rng.Intn(min(nVars, 3)+1)] {
				e = b.Add(e, vars[v])
				uses[i] = append(uses[i], v)
			}
			if len(e.VarIDs()) != len(uses[i]) {
				t.Fatalf("trial %d: expression %d has %d variables, built with %d", trial, i, len(e.VarIDs()), len(uses[i]))
			}
			es[i] = e
		}

		// reach[i][j]: a chain of shared variables links es[i] and es[j].
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = make([]bool, n)
			reach[i][i] = true
			for j := range es {
				for _, v := range uses[i] {
					if slices.Contains(uses[j], v) {
						reach[i][j] = true
					}
				}
			}
		}
		for k := range es {
			for i := range es {
				for j := range es {
					reach[i][j] = reach[i][j] || reach[i][k] && reach[k][j]
				}
			}
		}
		want := make([]int, n)
		next := 0
		for i := range want {
			want[i] = -1
			for j := 0; j < i; j++ {
				if reach[i][j] {
					want[i] = want[j]
					break
				}
			}
			if want[i] < 0 {
				want[i] = next
				next++
			}
		}

		if got := Components(es); !slices.Equal(got, want) {
			t.Fatalf("trial %d: uses %v: Components = %v, want %v", trial, uses, got, want)
		}
	}
}
