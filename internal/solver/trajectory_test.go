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

// trajectoryStats keeps the counters the golden-trajectory tests assert.
func trajectoryStats(st Stats) Stats {
	return Stats{Conflicts: st.Conflicts, Decisions: st.Decisions, Gates: st.Gates,
		SATCalls: st.SATCalls, IncSolves: st.IncSolves, LearnedRetained: st.LearnedRetained}
}

// TestGoldenTrajectory pins the search itself, not just its verdicts: each
// of two query corpora is replayed twice, on a fresh solver each time.
//
// The model half decides ModelWith on every entry: each query solves from
// scratch on a recycled instance, so the CDCL counters and a hash of every
// witness model are fixed. The hash is the one recorded before the SAT
// core's memory layout changed (a59e9f0) and the counters those of 33f1931;
// witness models enter Digest(0), so a change that moves one of these
// numbers has changed a decision. A solver change is search-preserving iff
// this half (-run 'TestGoldenTrajectory/.*/model') passes unedited.
//
// The incremental half decides FeasibleWith on every entry, on the slot's
// persistent instance. Its verdicts (hashed) and gates are semantic or
// structural. Its conflicts, decisions and retained learned clauses follow
// the persistent instance's search, and its SAT calls and incremental
// solves follow the models that search leaves in the pool: all five were
// re-pinned when solves were restricted to their query's cone.
func TestGoldenTrajectory(t *testing.T) {
	for _, tc := range []struct {
		name    string
		queries func(*expr.Builder) []PrefixQuery
		// Only the asserted fields of the Stats are set.
		model, incremental Stats
		models, verdicts   uint64
	}{
		{
			name:    "prefix",
			queries: func(eb *expr.Builder) []PrefixQuery { return PrefixExtensionQueries(eb, 24) },
			model:   Stats{Conflicts: 2221, Decisions: 6346, Gates: 314258, SATCalls: 48},
			models:  0xc4161ec2bb2658cd,
			incremental: Stats{Conflicts: 173, Decisions: 1269, Gates: 12579,
				SATCalls: 26, IncSolves: 26, LearnedRetained: 173},
			verdicts: 0x6ba82f8b32cbbcd5,
		},
		{
			name:    "runicast",
			queries: func(eb *expr.Builder) []PrefixQuery { return RunicastPrefixQueries(eb, 3, 12) },
			model:   Stats{Conflicts: 436, Decisions: 7566, Gates: 138580, SATCalls: 72},
			models:  0x9bf46e2ead30d0d9,
			incremental: Stats{Conflicts: 210, Decisions: 1937, Gates: 10760,
				SATCalls: 37, IncSolves: 37, LearnedRetained: 210},
			verdicts: 0x5d54236765d7d0d1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("model", func(t *testing.T) {
				eb := expr.NewBuilder()
				s := New()
				h := fnv.New64a()
				for i, q := range tc.queries(eb) {
					model, sat, err := s.ModelWith(q.Prefix, q.Extra)
					if err != nil {
						t.Fatalf("query %d: ModelWith: %v", i, err)
					}
					hashModel(h, sat, model)
				}
				if got := trajectoryStats(s.Stats()); got != tc.model {
					t.Errorf("model trajectory moved:\n got  %+v\n want %+v", got, tc.model)
				}
				if sum := h.Sum64(); sum != tc.models {
					t.Errorf("model hash %#x, want %#x", sum, tc.models)
				}
			})
			t.Run("incremental", func(t *testing.T) {
				eb := expr.NewBuilder()
				s := New()
				h := fnv.New64a()
				for i, q := range tc.queries(eb) {
					sat, err := s.FeasibleWith(nil, q.Prefix, q.Extra)
					if err != nil {
						t.Fatalf("query %d: FeasibleWith: %v", i, err)
					}
					fmt.Fprintf(h, "%v;", sat)
				}
				if got := trajectoryStats(s.Stats()); got != tc.incremental {
					t.Errorf("incremental trajectory moved:\n got  %+v\n want %+v", got, tc.incremental)
				}
				if sum := h.Sum64(); sum != tc.verdicts {
					t.Errorf("verdict hash %#x, want %#x", sum, tc.verdicts)
				}
			})
		})
	}
}
