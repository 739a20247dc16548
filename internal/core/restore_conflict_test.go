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
			orig := sortedStates(m)[0]
			sib := branchMock(orig)
			m.OnBranch(orig, sib)
			sp, states := mustSnapshot(t, m), sortedStates(m)
			if _, err := RestoreMapper(sp, states); err != nil {
				t.Fatalf("honest snapshot: %v", err)
			}
			sib.hist = mixMock(sib.hist, 7)
			_, err := RestoreMapper(sp, states)
			if err == nil || !strings.Contains(err.Error(), "conflicting states") {
				t.Fatalf("restore over a conflicting bucket: err = %v, want conflicting states", err)
			}
		})
	}
}
