package solver

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"testing"

	"sde/internal/expr"
)

// hashModel folds one model into h, keys in sorted order so the hash is a
// function of the assignment and not of map iteration.
func hashModel(h io.Writer, sat bool, model expr.Env) {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(h, "%v;", sat)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d,", k, model[k])
	}
}

// TestGoldenTrajectory pins the search itself, not just its verdicts: a
// synchronous solver decides FeasibleWith then ModelWith on every entry of
// two query corpora, and the counters of the CDCL runs behind them plus a
// hash of every witness model must equal the values recorded before the SAT
// core's memory layout changed (parent a59e9f0). Witness models enter
// Digest(0), so a change to the solver's memory that moves one of these
// numbers has changed a decision and is not a memory change.
func TestGoldenTrajectory(t *testing.T) {
	for _, tc := range []struct {
		name    string
		queries func(*expr.Builder) []PrefixQuery
		want    Stats // only the asserted fields are set
		models  uint64
	}{
		{
			name:    "prefix",
			queries: func(eb *expr.Builder) []PrefixQuery { return PrefixExtensionQueries(eb, 24) },
			want: Stats{Conflicts: 2270, Decisions: 7017, Gates: 326837,
				SATCalls: 64, IncSolves: 16, LearnedRetained: 49},
			models: 0xc4161ec2bb2658cd,
		},
		{
			name:    "runicast",
			queries: func(eb *expr.Builder) []PrefixQuery { return RunicastPrefixQueries(eb, 3, 12) },
			want: Stats{Conflicts: 823, Decisions: 11141, Gates: 149340,
				SATCalls: 109, IncSolves: 37, LearnedRetained: 387},
			models: 0x9bf46e2ead30d0d9,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eb := expr.NewBuilder()
			s := New()
			h := fnv.New64a()
			for i, q := range tc.queries(eb) {
				if _, err := s.FeasibleWith(nil, q.Prefix, q.Extra); err != nil {
					t.Fatalf("query %d: FeasibleWith: %v", i, err)
				}
				model, sat, err := s.ModelWith(q.Prefix, q.Extra)
				if err != nil {
					t.Fatalf("query %d: ModelWith: %v", i, err)
				}
				hashModel(h, sat, model)
			}
			st := s.Stats()
			got := Stats{Conflicts: st.Conflicts, Decisions: st.Decisions, Gates: st.Gates,
				SATCalls: st.SATCalls, IncSolves: st.IncSolves, LearnedRetained: st.LearnedRetained}
			if got != tc.want {
				t.Errorf("trajectory moved:\n got  %+v\n want %+v", got, tc.want)
			}
			if sum := h.Sum64(); sum != tc.models {
				t.Errorf("model hash %#x, want %#x", sum, tc.models)
			}
		})
	}
}
