package core

import (
	"strings"
	"testing"
)

// TestCOBRefusesSharedBucket: COB is COW whose buckets hold one state each.
// A sibling that joins its predecessor's dstate, as COW's branch rule
// does, keeps every COW invariant but makes the dstate stand for two
// dscenarios; COB's CheckInvariants must refuse it.
func TestCOBRefusesSharedBucket(t *testing.T) {
	net := newMockNet(3)
	m := NewCOB[*mockState](3)
	register(t, m, net)
	sib := branchMock(net[1])
	m.COW.OnBranch(net[1], sib)
	if err := m.COW.CheckInvariants(); err != nil {
		t.Fatalf("COW rejects the joined sibling: %v", err)
	}
	err := m.CheckInvariants()
	if err == nil {
		t.Fatal("COB accepted a bucket holding two states")
	}
	if !strings.Contains(err.Error(), "holds 2 states for node 1") {
		t.Errorf("error %q does not name the bucket", err)
	}
}
