package core

import (
	"strings"
	"testing"
)

// TestRestoreRefusesConflictingBucket: a snapshot names states by id, so
// a checkpoint whose states' histories were altered can put two states of
// one node with different histories in one bucket. The restore must refuse
// it, as CheckInvariants would, rather than hand back a mapper whose
// dstates mix contradictory dscenarios.
func TestRestoreRefusesConflictingBucket(t *testing.T) {
	for _, algo := range []Algorithm{COWAlgorithm, SDSAlgorithm} {
		t.Run(algo.String(), func(t *testing.T) {
			m := newRegistered(t, algo, 3)
			byID := map[uint64]*mockState{}
			m.ForEachState(func(s *mockState) { byID[s.id] = s })
			orig := byID[1]
			sib := branchMock(orig)
			m.OnBranch(orig, sib)
			byID[sib.id] = sib
			sp := mustSnapshot(t, m)
			lookup := func(id uint64) (*mockState, bool) {
				s, ok := byID[id]
				return s, ok
			}
			if _, err := RestoreMapper[*mockState](sp, lookup); err != nil {
				t.Fatalf("honest snapshot: %v", err)
			}
			sib.hist = mixMock(sib.hist, 7)
			_, err := RestoreMapper[*mockState](sp, lookup)
			if err == nil || !strings.Contains(err.Error(), "conflicting states") {
				t.Fatalf("restore over a conflicting bucket: err = %v, want conflicting states", err)
			}
		})
	}
}
